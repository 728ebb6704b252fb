package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/runner"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// simRep is one build and run of one scenario.
type simRep struct {
	buildS, runS float64
	res          scenario.Result
}

// simPass is one repetition of a single-simulation workload: every
// scenario of the workload's set, built and run in order.
type simPass struct {
	reps    []simRep
	wallS   float64
	digest  string
	traced  tracedSlices // summed over the set; traced passes only
	profile []string     // CPU profiles of the set's runs; traced passes only
}

// tracedSlices splits traced runs' host time at the scenario warmup.
type tracedSlices struct {
	warmS, steadyS     float64
	warmEv, steadyEv   uint64
	collectS           float64
	mallocs, allocByte uint64
}

func (t *tracedSlices) add(o tracedSlices) {
	t.warmS += o.warmS
	t.steadyS += o.steadyS
	t.warmEv += o.warmEv
	t.steadyEv += o.steadyEv
	t.collectS += o.collectS
	t.mallocs += o.mallocs
	t.allocByte += o.allocByte
}

// writeRecord appends the run's record exactly as runner.WriteResult
// writes it after runner.ResultOf with timing off.
func writeRecord(w io.Writer, o scenario.Options, res scenario.Result) error {
	rec := runner.ResultOf(runner.SingleRun(o), res)
	rec.PeakQueue = 0 // collected only by traced runs; timing-off records omit it
	return runner.WriteResult(w, rec)
}

// simCheck rejects results no correct run of these workloads produces.
func simCheck(res scenario.Result) error {
	switch {
	case res.Events == 0:
		return fmt.Errorf("no events executed")
	case !(res.ThroughputKbps > 0):
		return fmt.Errorf("throughput %v kbps", res.ThroughputKbps)
	case !(res.PDR > 0 && res.PDR <= 1):
		return fmt.Errorf("PDR %v outside (0, 1]", res.PDR)
	}
	return nil
}

// build times scenario.Build under a span.
func (b *bench) build(o scenario.Options, parent int) (*scenario.Network, float64, error) {
	sp := b.spans.start("scenario.Build", parent)
	nw, err := scenario.Build(o)
	return nw, b.spans.end(sp), err
}

// simPass builds and runs every scenario of set. A traced pass slices
// Sched.Run per simulated second, with each run under a CPU profile
// written into the work dir.
func (b *bench) simPass(set []scenario.Options, n, parent int, traced bool) (p simPass, err error) {
	pass := b.spans.start(fmt.Sprintf("pass %d", n), parent)
	defer b.spans.end(pass)
	h := sha256.New()
	start := time.Now()
	defer func() { p.wallS = time.Since(start).Seconds() }()
	for i, o := range set {
		runtime.GC() // each run starts from a collected heap
		if traced {
			o.CollectSimStats = true
		}
		nw, buildS, err := b.build(o, pass)
		if err != nil {
			return p, err
		}
		r := simRep{buildS: buildS}
		sp := b.spans.start("Network.Run", pass)
		if !traced {
			r.res = nw.Run()
			r.runS = b.spans.end(sp)
		} else {
			path := filepath.Join(b.workDir(), fmt.Sprintf("cpu-%d-%d.prof", n, i))
			prof, err := startCPUProfile(path)
			if err != nil {
				return p, err
			}
			var ts tracedSlices
			r.res, ts = b.slicedRun(nw, sp)
			r.runS = b.spans.end(sp)
			if err := prof.stop(); err != nil {
				return p, err
			}
			p.profile = append(p.profile, path)
			p.traced.add(ts)
		}
		if err := simCheck(r.res); err != nil {
			return p, fmt.Errorf("scenario %d (seed %d): %w", i, o.Seed, err)
		}
		if err := writeRecord(h, o, r.res); err != nil {
			return p, err
		}
		p.reps = append(p.reps, r)
	}
	p.digest = hex.EncodeToString(h.Sum(nil))
	return p, nil
}

// slicedRun advances the scheduler to the horizon one simulated second
// at a time, timing each slice, then lets Network.Run assemble the
// result.
func (b *bench) slicedRun(nw *scenario.Network, parent int) (scenario.Result, tracedSlices) {
	var ts tracedSlices
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	horizon := sim.Time(nw.Opts.Duration)
	warm := sim.Time(nw.Opts.Warmup)
	for t := sim.Time(0); t < horizon; {
		t = min(t+sim.Time(sim.Second), horizon)
		ev0 := nw.Sched.Executed()
		sp := b.spans.start(fmt.Sprintf("Sched.Run %gs", t.Seconds()), parent)
		nw.Sched.Run(t)
		d := b.spans.end(sp)
		ev := nw.Sched.Executed() - ev0
		if t <= warm {
			ts.warmS += d
			ts.warmEv += ev
		} else {
			ts.steadyS += d
			ts.steadyEv += ev
		}
	}
	sp := b.spans.start("Network.Run collect", parent)
	res := nw.Run()
	ts.collectS = b.spans.end(sp)
	runtime.ReadMemStats(&m1)
	ts.mallocs = m1.Mallocs - m0.Mallocs
	ts.allocByte = m1.TotalAlloc - m0.TotalAlloc
	return res, ts
}

// simUntraced measures a single-simulation workload with tracing off.
// Each pass yields one sample per metric, the mean over the set, except
// setup_s, which takes every build.
func simUntraced(b *bench, root int) error {
	set := b.w.scenarios(b.cfg.seed, b.horizon())
	var build, runS, first, perS []float64
	start := time.Now()
	for n := 0; !b.done(start, n); n++ {
		p, err := b.simPass(set, n, root, false)
		b.check.op(fmt.Sprintf("pass %d", n), p.digest, err)
		b.passTime(p.wallS)
		if err != nil {
			continue
		}
		var run, firstSum float64
		for _, r := range p.reps {
			build = append(build, r.buildS)
			run += r.runS
			firstSum += r.buildS + r.runS
		}
		k := float64(len(p.reps))
		runS = append(runS, run/k)
		first = append(first, firstSum/k)
		perS = append(perS, k/p.wallS)
	}
	for n := 0; len(build) < minSetupSamples; n++ {
		runtime.GC()
		_, s, err := b.build(set[n%len(set)], root)
		if err != nil {
			return err
		}
		build = append(build, s)
	}
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	b.add("run_s", "s", runS)
	b.add("setup_s", "s", build)
	b.add("first_result_s", "s", first)
	b.add("runs_per_s", "1/s", perS)
	b.addValue("peak_rss_mb", "MB", rss)
	return nil
}

// minSetupSamples is the fewest set-up timings setup_s takes its median
// over; passes short of it are topped up with set-ups alone.
const minSetupSamples = 45

// simTraced alternates untraced and traced passes and reports the
// per-layer metrics.
func simTraced(b *bench, root int) error {
	set := b.w.scenarios(b.cfg.seed, b.horizon())
	var plain, traced []float64
	var last simPass
	lt := layerTime{}
	start := time.Now()
	// minReps >= 2, so the first traced pass always runs.
	for n := 0; !b.done(start, n); n++ {
		tr := n%2 == 1
		p, err := b.simPass(set, n, root, tr)
		b.check.op(fmt.Sprintf("pass %d (traced %v)", n, tr), p.digest, err)
		b.passTime(p.wallS)
		if err != nil {
			continue
		}
		var run float64
		for _, r := range p.reps {
			run += r.runS
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
		ts                 = last.traced
		events             uint64
		peak               int
		txFrames, rxFrames uint64
		retries, rtsData   uint64
		skipped, ctrlTried uint64
		rreq, delivered    uint64
		dupRREQ, rreqRecv  uint64
	)
	for _, r := range last.reps {
		res, m := r.res, r.res.MAC
		events += res.Events
		peak = max(peak, res.PeakQueue)
		txFrames += m.TxRTS + m.TxCTS + m.TxData + m.TxAck + m.TxBroadcast
		rxFrames += m.RxClean + m.RxOverheard + m.RxError
		retries += m.Retries
		rtsData += m.TxRTS + m.TxData
		skipped += res.Ctrl.Skipped
		ctrlTried += res.Ctrl.Sent + res.Ctrl.Skipped
		rreq += res.Routing.RREQSent
		delivered += res.Routing.DeliveredLocal
		dupRREQ += res.Routing.DuplicateRREQIgnored
		rreqRecv += res.Routing.RREQRecv
	}
	b.addValue("sim.events", "count", float64(events))
	b.addValue("sim.peak_pending", "count", float64(peak))
	b.addValue("sim.ns_per_event", "ns", perEvent(ts.warmS+ts.steadyS, ts.warmEv+ts.steadyEv))
	b.addValue("sim.ns_per_event_warmup", "ns", perEvent(ts.warmS, ts.warmEv))
	b.addValue("sim.ns_per_event_steady", "ns", perEvent(ts.steadyS, ts.steadyEv))
	b.addValue("alloc_bytes_per_event", "B", ratio(ts.allocByte, events))
	b.addValue("allocs_per_event", "count", ratio(ts.mallocs, events))
	b.addValue("scenario.collect_s", "s", fdiv(ts.collectS, float64(len(last.reps))))
	b.addValue("phys.rx_per_tx", "ratio", ratio(rxFrames, txFrames))
	b.addValue("mac.retry_ratio", "ratio", ratio(retries, rtsData))
	b.addValue("ctrl.skip_ratio", "ratio", ratio(skipped, ctrlTried))
	b.addValue("aodv.rreq_per_delivered", "ratio", ratio(rreq, delivered))
	b.addValue("aodv.dup_rreq_ratio", "ratio", ratio(dupRREQ, rreqRecv))
	// Only the campaign workload goes through runner and serve.
	for _, m := range []struct{ name, unit string }{
		{"runner.run_wall_p50_s", "s"}, {"runner.busy_frac", "fraction"}, {"runner.emit_wait_p50_s", "s"},
		{"serve.submit_s", "s"}, {"serve.checkpoint_writes", "count"}, {"serve.checkpoint_syncs", "count"},
	} {
		b.addValue(m.name, m.unit, 0)
	}
	b.addValue("trace.overhead_frac", "fraction", fdiv(median(traced), median(plain))-1)
	return nil
}

// perEvent is nanoseconds per event, 0 when no event ran.
func perEvent(s float64, events uint64) float64 { return fdiv(s*1e9, float64(events)) }

func ratio(num, den uint64) float64 { return fdiv(float64(num), float64(den)) }

// fdiv divides, reading 0 for a zero denominator: a metric of a layer
// the workload never exercised.
func fdiv(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// simDigestOnce runs one untimed pass for the digest table.
func simDigestOnce(b *bench) (string, error) {
	p, err := b.simPass(b.w.scenarios(b.cfg.seed, b.horizon()), 0, 0, false)
	return p.digest, err
}
