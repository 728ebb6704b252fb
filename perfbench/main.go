// Command perfbench is the repository's whole-run benchmark. It times
// whole simulations and a whole campaign through the system's public
// entry points (scenario.Build, Network.Run and Sched.Run, and the
// campaignd HTTP API served in-process on loopback), checks that every
// output matches a recorded digest, and prints one JSON result line.
//
//	bash perfbench/run.sh --workload paper50 --seed 1 --seconds 30 --trace 0
//
// With --trace 0 it measures the end-to-end metrics with tracing off.
// With --trace 1 it alternates untraced and traced repetitions and
// reports the per-layer metrics: spans recorded around the calls into
// each layer, and flat CPU time folded by internal package from a CPU
// profile of the traced repetitions. See README.md for every metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"
)

// config is one invocation's settings.
type config struct {
	root, out string
	workload  string
	seed      int64
	seconds   float64
	trace     bool
	// horizonS overrides the workload's simulated horizon (0 keeps it);
	// the self-test uses it to run every workload in a few seconds.
	horizonS float64
	// digests is the expected-digest table; record, when set, names a
	// seed range whose digests are computed and written to it instead
	// of measuring.
	digests string
	record  string
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes one invocation and returns the process exit code: 0
// only when every operation succeeded and every output was correct.
func run(args []string, stdout, stderr io.Writer) int {
	cfg, err := parseFlags(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if cfg.record != "" {
		if err := recordDigests(cfg, stderr); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	rep, err := measure(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := rep.write(cfg, stdout); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if !rep.correct() {
		fmt.Fprintf(stderr, "perfbench: %d of %d operations failed\n", rep.Failed, rep.Attempted)
		return 1
	}
	return 0
}

func parseFlags(args []string, stderr io.Writer) (config, error) {
	var cfg config
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&cfg.root, "root", ".", "repository checkout the benchmark runs in")
	fs.StringVar(&cfg.out, "out", "", "directory for reports, spans, profiles and campaign state (default <root>/.bench_build)")
	fs.StringVar(&cfg.workload, "workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	fs.Float64Var(&cfg.seconds, "seconds", 30, "host seconds to measure for")
	trace := fs.Int("trace", 0, "1 measures the per-layer metrics from traced repetitions")
	fs.Float64Var(&cfg.horizonS, "horizon", 0, "simulated seconds per run (0 keeps the workload's horizon)")
	fs.StringVar(&cfg.digests, "digests", "", "expected-digest table (default <root>/perfbench/digests.json)")
	fs.StringVar(&cfg.record, "record", "", "seed range lo-hi: record digests for it into -digests instead of measuring")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	if fs.NArg() > 0 {
		return cfg, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if cfg.out == "" {
		cfg.out = filepath.Join(cfg.root, ".bench_build")
	}
	if cfg.digests == "" {
		cfg.digests = filepath.Join(cfg.root, "perfbench", "digests.json")
	}
	if _, ok := workloads[cfg.workload]; !ok && cfg.record == "" {
		return cfg, fmt.Errorf("unknown workload %q (have %s)", cfg.workload, strings.Join(workloadNames(), ", "))
	}
	if *trace != 0 && *trace != 1 {
		return cfg, fmt.Errorf("--trace must be 0 or 1, got %d", *trace)
	}
	cfg.trace = *trace == 1
	if cfg.seconds <= 0 || cfg.seconds > 120 {
		return cfg, fmt.Errorf("--seconds must be in (0, 120], got %g", cfg.seconds)
	}
	if cfg.horizonS < 0 {
		return cfg, fmt.Errorf("--horizon must not be negative")
	}
	return cfg, nil
}

// measure runs the selected workload for the configured time and
// assembles its report.
func measure(cfg config) (*report, error) {
	want, err := loadDigests(cfg.digests)
	if err != nil {
		return nil, err
	}
	w := workloads[cfg.workload]
	b := &bench{
		cfg:   cfg,
		w:     w,
		spans: newSpanLog(fmt.Sprintf("%s-seed%d-trace%d-%d", cfg.workload, cfg.seed, btoi(cfg.trace), time.Now().UnixNano())),
		check: &checker{want: want.lookup(cfg.workload, cfg.seed, horizonOf(cfg, w))},
	}
	if err := os.MkdirAll(b.workDir(), 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(b.workDir())
	root := b.spans.start(cfg.workload, 0)
	if cfg.trace {
		err = w.traced(b, root)
	} else {
		err = w.untraced(b, root)
	}
	b.spans.end(root)
	if err != nil {
		return nil, err
	}
	rep := &report{
		Workload:  cfg.workload,
		Seed:      cfg.seed,
		Trace:     cfg.trace,
		HorizonS:  horizonOf(cfg, w),
		Env:       stampEnv(cfg.root),
		Attempted: b.check.attempted,
		Failed:    b.check.failed,
		Errors:    b.check.errors,
		Digest:    b.check.first,
		Expected:  b.check.want,
		Metrics:   b.metrics,
	}
	if cfg.trace {
		if err := b.spans.write(filepath.Join(cfg.out, "spans", b.spans.runID+".jsonl")); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// horizonOf is the simulated horizon the invocation runs at.
func horizonOf(cfg config, w workload) float64 {
	if cfg.horizonS > 0 {
		return cfg.horizonS
	}
	return w.horizonS
}

func btoi(v bool) int {
	if v {
		return 1
	}
	return 0
}

// bench is one invocation's measuring state.
type bench struct {
	cfg     config
	w       workload
	spans   *spanLog
	check   *checker
	metrics []metric
	passS   []float64
}

func (b *bench) horizon() float64 { return horizonOf(b.cfg, b.w) }

// workDir holds the invocation's scratch state (campaign state dirs,
// CPU profiles); it is removed when the invocation ends.
func (b *bench) workDir() string {
	return filepath.Join(b.cfg.out, "work", b.spans.runID)
}

// done reports whether the measuring loop should stop after reps
// passes: it has made its minimum passes and another pass of the mean
// length so far would run past the measuring time.
func (b *bench) done(start time.Time, reps int) bool {
	if reps < b.w.minReps {
		return false
	}
	var sum float64
	for _, s := range b.passS {
		sum += s
	}
	mean := sum / float64(len(b.passS))
	return time.Since(start).Seconds()+mean > b.cfg.seconds
}

// passTime records one pass's host seconds for done's forecast.
func (b *bench) passTime(s float64) { b.passS = append(b.passS, s) }

// add records a metric computed from samples: the median, with the
// sample count and, where at least ten samples lie above it, the
// highest such percentile of 90, 99.
func (b *bench) add(name, unit string, samples []float64) {
	m := metric{Name: name, Unit: unit, Value: median(samples), N: len(samples)}
	for _, p := range []float64{99, 90} {
		if float64(len(samples))*(1-p/100) >= 10 {
			m.HighPct, m.High = p, percentile(samples, p)
			break
		}
	}
	b.metrics = append(b.metrics, m)
}

// addValue records a metric that is one exact or derived value.
func (b *bench) addValue(name, unit string, v float64) {
	b.metrics = append(b.metrics, metric{Name: name, Unit: unit, Value: v, N: 1})
}

// checker counts operations and compares each output digest with the
// recorded one and with the invocation's first output.
type checker struct {
	want      string // "" when the table has no digest for this seed
	first     string
	attempted int
	failed    int
	errors    []string
}

// op records one operation: err is a run error or a violated
// invariant; digest is its output digest ("" when it produced none).
func (c *checker) op(what, digest string, err error) {
	c.attempted++
	switch {
	case err != nil:
	case c.want != "" && digest != c.want:
		err = fmt.Errorf("digest %s, recorded %s", short(digest), short(c.want))
	case c.first != "" && digest != c.first:
		err = fmt.Errorf("digest %s differs from the first repetition's %s", short(digest), short(c.first))
	}
	if c.first == "" && digest != "" {
		c.first = digest
	}
	if err != nil {
		c.failed++
		c.errors = append(c.errors, what+": "+err.Error())
	}
}

func short(d string) string {
	if len(d) > 12 {
		return d[:12]
	}
	return d
}

// metric is one named measurement.
type metric struct {
	Name    string  `json:"name"`
	Unit    string  `json:"unit"`
	Value   float64 `json:"value"`
	N       int     `json:"samples"`
	HighPct float64 `json:"high_pct,omitempty"`
	High    float64 `json:"high,omitempty"`
}

// report is an invocation's full outcome; it is printed and kept as
// JSON under <out>/reports.
type report struct {
	Workload  string   `json:"workload"`
	Seed      int64    `json:"seed"`
	Trace     bool     `json:"trace"`
	HorizonS  float64  `json:"horizon_s"`
	Env       env      `json:"env"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Errors    []string `json:"errors,omitempty"`
	Digest    string   `json:"digest"`
	Expected  string   `json:"expected_digest"`
	Metrics   []metric `json:"metrics"`
}

func (r *report) correct() bool { return r.Failed == 0 && r.Attempted > 0 }

// write prints the human-readable table, the environment stamp and,
// last, the one-line JSON result; it also keeps the full report.
func (r *report) write(cfg config, w io.Writer) error {
	fmt.Fprintf(w, "workload %s seed %d trace %d horizon %gs: %d attempted, %d failed, error_rate %g fraction\n",
		r.Workload, r.Seed, btoi(r.Trace), r.HorizonS, r.Attempted, r.Failed, r.errorRate())
	for _, e := range r.Errors {
		fmt.Fprintln(w, "  error:", e)
	}
	expected := r.Expected
	if expected == "" {
		expected = "(no recorded digest for this seed; repetitions checked against each other)"
	}
	fmt.Fprintf(w, "  digest %s expected %s\n", r.Digest, expected)
	for _, m := range r.Metrics {
		line := fmt.Sprintf("  %-28s %14.6g %-9s n=%d", m.Name, m.Value, m.Unit, m.N)
		if m.HighPct > 0 {
			line += fmt.Sprintf(" p%g=%.6g", m.HighPct, m.High)
		}
		fmt.Fprintln(w, line)
	}
	stamp, err := json.Marshal(r.Env)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "  env %s\n", stamp)

	full, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	dir := filepath.Join(cfg.out, "reports")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.json", r.Workload, r.Seed, btoi(r.Trace))
	if err := os.WriteFile(filepath.Join(dir, name), append(full, '\n'), 0o644); err != nil {
		return err
	}

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct(), r.Attempted, r.Failed, map[string]value{}}
	for _, m := range r.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is %v", m.Name, m.Value)
		}
		out.Metrics[m.Name] = value{m.Value, m.Unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

func (r *report) errorRate() float64 {
	if r.Attempted == 0 {
		return 1
	}
	return float64(r.Failed) / float64(r.Attempted)
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM) in
// MB; Linux reports ru_maxrss in KiB.
func peakRSSMB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return float64(ru.Maxrss) / 1024, nil
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// percentile interpolates linearly between order statistics.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}
