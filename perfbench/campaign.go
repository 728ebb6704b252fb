package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/runner"
	"repro/internal/serve"
)

// campaignsPerPass is how many campaigns one pass submits, one after
// another, each with its own base seed derived from the benchmark seed.
// A campaign's first result is one run's latency, which varies by about
// 15% with that run's random flows; a pass averages it over six.
const campaignsPerPass = 6

// campaignSpecs are the pass's campaigns: the bursty preset (Basic and
// PCMAC x cbr, poisson, onoff, pareto x 300 and 500 kbps x 2 reps: 32
// runs of the 50-node scenario) under derived base seeds. runs is the
// run count of each.
func campaignSpecs(seed int64, horizonS float64) (specs [][]byte, runs int, err error) {
	for i := 0; i < campaignsPerPass; i++ {
		c, err := runner.Preset("bursty", horizonS, 2, []float64{300, 500})
		if err != nil {
			return nil, 0, err
		}
		c.BaseSeed = runner.DeriveSeed(seed, fmt.Sprintf("campaign-bursty/%d", i))
		rs, err := c.Runs()
		if err != nil {
			return nil, 0, err
		}
		body, err := json.Marshal(c.File())
		if err != nil {
			return nil, 0, err
		}
		specs, runs = append(specs, body), len(rs)
	}
	return specs, runs, nil
}

// campRep is one campaign seen from its client.
type campRep struct {
	setupS, submitS, wallS, firstS float64
	runs                           int
	// runWallMeanS is the mean per-run wall time from the service's
	// campaign_run_wall_seconds histogram.
	runWallMeanS float64
	// results is the served JSONL, re-encoded without the timing fields
	// for a traced campaign.
	results []byte
	metrics map[string]float64
	// Traced campaigns only: per-record wall_ms, the re-sequencing wait
	// between a run finishing and its SSE record, and the records.
	walls, emitWaits []float64
	records          []runner.Result
	mallocs, alloc   uint64
}

// campPass is one repetition of the campaign workload: every campaign
// of the set, in order.
type campPass struct {
	reps    []campRep
	wallS   float64
	digest  string
	profile []string // traced passes only
}

// daemon is an in-process campaignd on a loopback port.
type daemon struct {
	svc    *serve.Service
	hs     *http.Server
	client *http.Client
	base   string
	done   chan struct{}
}

func startDaemon(dir string, opts serve.Options) (*daemon, error) {
	svc, err := serve.NewService(dir, opts)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Close()
		return nil, err
	}
	d := &daemon{
		svc:    svc,
		hs:     &http.Server{Handler: serve.NewServer(svc)},
		client: &http.Client{Transport: &http.Transport{}},
		base:   "http://" + ln.Addr().String(),
		done:   make(chan struct{}),
	}
	go func() {
		defer close(d.done)
		_ = d.hs.Serve(ln) // returns http.ErrServerClosed after Shutdown
	}()
	return d, nil
}

// stop shuts the HTTP server and the service down and waits for both.
func (d *daemon) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	d.client.CloseIdleConnections()
	_ = d.hs.Shutdown(ctx) // a timed-out shutdown still closes the listener
	d.hs.Close()
	<-d.done
	d.svc.Close()
}

// submit POSTs the spec and returns the new campaign's ID.
func (d *daemon) submit(spec []byte) (string, error) {
	resp, err := d.client.Post(d.base+"/campaigns", "application/json", bytes.NewReader(spec))
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	var st struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return "", fmt.Errorf("POST /campaigns: %w", err)
	}
	if resp.StatusCode != http.StatusAccepted {
		return "", fmt.Errorf("POST /campaigns: status %d, want 202 (a fresh campaign)", resp.StatusCode)
	}
	return st.ID, nil
}

func (d *daemon) get(path string) ([]byte, error) {
	resp, err := d.client.Get(d.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d: %s", path, resp.StatusCode, strings.TrimSpace(string(b)))
	}
	return b, nil
}

// sseEvent is one server-sent event with its arrival time.
type sseEvent struct {
	typ  string
	data []byte
	at   time.Time
}

// follow reads the campaign's SSE stream until the "done" event,
// calling on for each event as it arrives.
func (d *daemon) follow(id string, on func(sseEvent) error) error {
	resp, err := d.client.Get(d.base + "/campaigns/" + id + "/events")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET events: status %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 16<<20)
	var ev sseEvent
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			ev.typ = line[len("event: "):]
		case strings.HasPrefix(line, "data: "):
			ev.data = []byte(line[len("data: "):])
		case line == "" && ev.typ != "":
			ev.at = time.Now()
			if err := on(ev); err != nil {
				return err
			}
			if ev.typ == "done" {
				return nil
			}
			ev = sseEvent{}
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return errors.New("event stream ended before done")
}

// parseMetrics reads the unlabelled series of a Prometheus text page.
func parseMetrics(page []byte) map[string]float64 {
	m := map[string]float64{}
	for _, line := range strings.Split(string(page), "\n") {
		if line == "" || line[0] == '#' || strings.Contains(line, "{") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			m[name] = v
		}
	}
	return m
}

// campaignRep runs one campaign against a fresh daemon on a fresh state
// dir, following the SSE stream until done. A traced campaign turns on
// per-run timing and writes a CPU profile of the campaign to prof.
func (b *bench) campaignRep(spec []byte, wantRuns int, name string, parent int, prof string) (campRep, error) {
	var r campRep
	runtime.GC()
	dir := filepath.Join(b.workDir(), "state-"+name)
	defer os.RemoveAll(dir)
	rep := b.spans.start("campaign "+name, parent)
	defer b.spans.end(rep)

	traced := prof != ""
	var mu sync.Mutex
	starts := map[string]time.Time{}
	opts := serve.Options{Workers: runtime.NumCPU(), Timing: traced}
	if traced {
		opts.RunHook = func(key string, attempt int) {
			if attempt == 0 {
				mu.Lock()
				starts[key] = time.Now()
				mu.Unlock()
			}
		}
	}
	t0 := time.Now()
	sp := b.spans.start("serve.NewService", rep)
	d, err := startDaemon(dir, opts)
	b.spans.end(sp)
	if err != nil {
		return r, err
	}
	defer d.stop()

	var p *cpuProfile
	var m0, m1 runtime.MemStats
	if traced {
		runtime.ReadMemStats(&m0)
		if p, err = startCPUProfile(prof); err != nil {
			return r, err
		}
	}
	tPost := time.Now()
	sp = b.spans.start("POST /campaigns", rep)
	id, err := d.submit(spec)
	r.submitS = b.spans.end(sp)
	r.setupS = time.Since(t0).Seconds()
	if err != nil {
		if p != nil {
			p.stop()
		}
		return r, err
	}
	run := b.spans.start("SSE "+id, rep)
	var done struct {
		State    string `json:"state"`
		Executed int    `json:"executed"`
		Resumed  int    `json:"resumed"`
		Failed   int    `json:"failed"`
	}
	err = d.follow(id, func(ev sseEvent) error {
		switch ev.typ {
		case "result":
			if r.firstS == 0 {
				r.firstS = ev.at.Sub(tPost).Seconds()
			}
			if !traced {
				return nil
			}
			var re struct {
				Result runner.Result `json:"result"`
			}
			if err := json.Unmarshal(ev.data, &re); err != nil {
				return fmt.Errorf("result event: %w", err)
			}
			mu.Lock()
			start, ok := starts[re.Result.Key]
			mu.Unlock()
			if !ok {
				return fmt.Errorf("result %s arrived without a recorded start", re.Result.Key)
			}
			end := start.Add(time.Duration(re.Result.WallMS * float64(time.Millisecond)))
			sp := b.spans.add("run "+re.Result.Key, run, start, end)
			b.spans.add("emit wait", sp, end, ev.at)
			r.walls = append(r.walls, re.Result.WallMS/1e3)
			r.emitWaits = append(r.emitWaits, ev.at.Sub(end).Seconds())
		case "run_failed":
			return fmt.Errorf("run failed: %s", ev.data)
		case "done":
			r.wallS = ev.at.Sub(tPost).Seconds()
			return json.Unmarshal(ev.data, &done)
		}
		return nil
	})
	b.spans.end(run)
	if traced {
		if perr := p.stop(); err == nil {
			err = perr
		}
		runtime.ReadMemStats(&m1)
		r.mallocs, r.alloc = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc
	}
	if err != nil {
		return r, err
	}
	page, err := d.get("/metrics")
	if err != nil {
		return r, err
	}
	r.metrics = parseMetrics(page)
	r.runWallMeanS = fdiv(r.metrics["campaign_run_wall_seconds_sum"], r.metrics["campaign_run_wall_seconds_count"])
	sp = b.spans.start("GET results.jsonl", rep)
	body, err := d.get("/campaigns/" + id + "/results.jsonl")
	b.spans.end(sp)
	if err != nil {
		return r, err
	}
	r.runs = done.Executed
	r.results, r.records, err = untimedResults(body, traced)
	if err != nil {
		return r, err
	}
	switch {
	case done.State != "done":
		err = fmt.Errorf("campaign ended %q", done.State)
	case done.Executed != wantRuns || len(r.records) != wantRuns:
		err = fmt.Errorf("%d runs executed and %d records served, want %d", done.Executed, len(r.records), wantRuns)
	case done.Resumed != 0 || r.metrics["campaign_runs_resumed_total"] != 0:
		err = fmt.Errorf("%d runs resumed from a checkpoint; every campaign must execute from scratch", done.Resumed)
	case done.Failed != 0:
		err = fmt.Errorf("%d runs quarantined", done.Failed)
	case r.metrics["campaign_runs_completed_total"] != float64(wantRuns):
		err = fmt.Errorf("campaign_runs_completed_total %g, want %d", r.metrics["campaign_runs_completed_total"], wantRuns)
	}
	return r, err
}

// untimedResults parses the served JSONL and returns it as an untraced
// campaign serves it. Timed records carry wall_ms and peak_queue, so a
// traced campaign's records are re-encoded without them through
// runner.WriteResult; the bytes then match an untraced campaign's.
func untimedResults(body []byte, traced bool) ([]byte, []runner.Result, error) {
	recs, err := runner.LoadResults(bytes.NewReader(body))
	if err != nil {
		return nil, nil, err
	}
	for _, rec := range recs {
		if rec.Failed() {
			return nil, nil, fmt.Errorf("run %s quarantined: %s", rec.Key, rec.Error)
		}
	}
	if !traced {
		return body, recs, nil
	}
	var buf bytes.Buffer
	for _, rec := range recs {
		rec.WallMS, rec.PeakQueue = 0, 0
		if err := runner.WriteResult(&buf, rec); err != nil {
			return nil, nil, err
		}
	}
	return buf.Bytes(), recs, nil
}

// campaignPass runs every campaign of specs in order; its digest hashes
// their results in that order.
func (b *bench) campaignPass(specs [][]byte, wantRuns, n, parent int, traced bool) (p campPass, err error) {
	pass := b.spans.start(fmt.Sprintf("pass %d", n), parent)
	defer b.spans.end(pass)
	start := time.Now()
	defer func() { p.wallS = time.Since(start).Seconds() }()
	h := sha256.New()
	for i, spec := range specs {
		prof := ""
		if traced {
			prof = filepath.Join(b.workDir(), fmt.Sprintf("cpu-%d-%d.prof", n, i))
			p.profile = append(p.profile, prof)
		}
		r, err := b.campaignRep(spec, wantRuns, fmt.Sprintf("%d-%d", n, i), pass, prof)
		if err != nil {
			return p, fmt.Errorf("campaign %d: %w", i, err)
		}
		h.Write(r.results)
		p.reps = append(p.reps, r)
	}
	p.digest = hex.EncodeToString(h.Sum(nil))
	return p, nil
}

// campaignSetupOnly times one more daemon start plus acknowledged POST.
// Its runs are aborted at their start through the service's run hook,
// so the campaign settles at once; only the set-up is measured.
func (b *bench) campaignSetupOnly(spec []byte, n, parent int) (float64, error) {
	runtime.GC()
	dir := filepath.Join(b.workDir(), fmt.Sprintf("setup-%d", n))
	defer os.RemoveAll(dir)
	abort := func(string, int) { panic("set-up-only campaign") }
	t0 := time.Now()
	sp := b.spans.start("set-up only", parent)
	d, err := startDaemon(dir, serve.Options{Workers: runtime.NumCPU(), RunHook: abort})
	if err != nil {
		return 0, err
	}
	defer d.stop()
	_, err = d.submit(spec)
	b.spans.end(sp)
	return time.Since(t0).Seconds(), err
}

// campaignUntraced measures the campaign workload with tracing off.
// Each pass yields one sample per metric, the mean over its campaigns,
// except setup_s, which takes every campaign's set-up.
func campaignUntraced(b *bench, root int) error {
	specs, want, err := campaignSpecs(b.cfg.seed, b.horizon())
	if err != nil {
		return err
	}
	var setup, first, runS, perS []float64
	start := time.Now()
	for n := 0; !b.done(start, n); n++ {
		p, err := b.campaignPass(specs, want, n, root, false)
		b.check.op(fmt.Sprintf("pass %d", n), p.digest, err)
		b.passTime(p.wallS)
		if err != nil {
			continue
		}
		var firstSum, runSum, wallSum float64
		var runs int
		for _, r := range p.reps {
			setup = append(setup, r.setupS)
			firstSum += r.firstS
			runSum += r.runWallMeanS
			wallSum += r.wallS
			runs += r.runs
		}
		k := float64(len(p.reps))
		first = append(first, firstSum/k)
		runS = append(runS, runSum/k)
		perS = append(perS, float64(runs)/wallSum)
	}
	for n := 0; len(setup) < minSetupSamples; n++ {
		s, err := b.campaignSetupOnly(specs[n%len(specs)], n, root)
		if err != nil {
			return err
		}
		setup = append(setup, s)
	}
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	b.add("run_s", "s", runS)
	b.add("setup_s", "s", setup)
	b.add("first_result_s", "s", first)
	b.add("runs_per_s", "1/s", perS)
	b.addValue("peak_rss_mb", "MB", rss)
	return nil
}

// campaignTraced alternates untraced and traced passes and reports the
// per-layer metrics.
func campaignTraced(b *bench, root int) error {
	specs, want, err := campaignSpecs(b.cfg.seed, b.horizon())
	if err != nil {
		return err
	}
	var plain, traced, submit []float64
	var last campPass
	lt := layerTime{}
	start := time.Now()
	// minReps >= 2, so the first traced pass always runs.
	for n := 0; !b.done(start, n); n++ {
		tr := n%2 == 1
		p, err := b.campaignPass(specs, want, n, root, tr)
		b.check.op(fmt.Sprintf("pass %d (traced %v)", n, tr), p.digest, err)
		b.passTime(p.wallS)
		if err != nil {
			continue
		}
		var run float64
		for _, r := range p.reps {
			run += r.runWallMeanS
			submit = append(submit, r.submitS)
		}
		if !tr {
			plain = append(plain, run)
			continue
		}
		traced = append(traced, run)
		if err := lt.fold(p.profile, b.workDir()); err != nil {
			return err
		}
		last = p
	}
	if err := b.addShares(lt); err != nil {
		return err
	}
	var (
		events, mallocs, alloc uint64
		peak                   int
		runWall, campWall      float64
		walls, emitWaits       []float64
		writes, syncs          float64
	)
	for _, r := range last.reps {
		for _, rec := range r.records {
			events += rec.Events
			peak = max(peak, rec.PeakQueue)
			runWall += rec.WallMS / 1e3
		}
		campWall += r.wallS
		walls = append(walls, r.walls...)
		emitWaits = append(emitWaits, r.emitWaits...)
		mallocs += r.mallocs
		alloc += r.alloc
		writes += r.metrics["campaign_checkpoint_writes_total"]
		syncs += r.metrics["campaign_checkpoint_syncs_total"]
	}
	k := float64(len(last.reps))
	b.addValue("sim.events", "count", float64(events))
	b.addValue("sim.peak_pending", "count", float64(peak))
	b.addValue("sim.ns_per_event", "ns", perEvent(runWall, events))
	// The daemon's runs are not sliced, and their records carry no MAC,
	// control-channel or routing counters: those metrics read 0 here.
	for _, name := range []string{"sim.ns_per_event_warmup", "sim.ns_per_event_steady"} {
		b.addValue(name, "ns", 0)
	}
	b.addValue("alloc_bytes_per_event", "B", ratio(alloc, events))
	b.addValue("allocs_per_event", "count", ratio(mallocs, events))
	b.addValue("scenario.collect_s", "s", 0)
	for _, name := range []string{"phys.rx_per_tx", "mac.retry_ratio", "ctrl.skip_ratio", "aodv.rreq_per_delivered", "aodv.dup_rreq_ratio"} {
		b.addValue(name, "ratio", 0)
	}
	b.addValue("runner.run_wall_p50_s", "s", median(walls))
	b.addValue("runner.busy_frac", "fraction", fdiv(runWall, float64(runtime.NumCPU())*campWall))
	b.addValue("runner.emit_wait_p50_s", "s", median(emitWaits))
	b.addValue("serve.submit_s", "s", median(submit))
	b.addValue("serve.checkpoint_writes", "count", fdiv(writes, k))
	b.addValue("serve.checkpoint_syncs", "count", fdiv(syncs, k))
	b.addValue("trace.overhead_frac", "fraction", fdiv(median(traced), median(plain))-1)
	return nil
}

// campaignDigestOnce runs one untimed pass for the digest table.
func campaignDigestOnce(b *bench) (string, error) {
	specs, want, err := campaignSpecs(b.cfg.seed, b.horizon())
	if err != nil {
		return "", err
	}
	p, err := b.campaignPass(specs, want, 0, 0, false)
	return p.digest, err
}
