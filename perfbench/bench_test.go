package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// tinyHorizon is each workload's simulated horizon in the self-test:
// long enough that packets are delivered after the 1 s traffic start
// (scale500-mobile's measurement window must reach past the route-discovery
// floods), short enough that every workload runs in seconds.
var tinyHorizon = map[string]float64{"paper50": 4, "scale500-mobile": 4, "campaign-bursty": 2}

type benchFile struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

type resultLine struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value *float64 `json:"value"`
		Unit  string   `json:"unit"`
	} `json:"metrics"`
}

// invoke runs the benchmark in-process and parses its last output line.
func invoke(t *testing.T, args ...string) (int, string, resultLine) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(append([]string{"--root", "..", "--out", t.TempDir(), "--seconds", "0.1"}, args...), &stdout, &stderr)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not a result: %v\nstdout:\n%s\nstderr:\n%s", err, stdout.String(), stderr.String())
	}
	return code, stdout.String(), res
}

// TestEveryMetricPrints runs each workload of BENCHMARK.json at a tiny
// horizon, untraced and traced, and checks that each prints exactly the
// declared metrics with their units, and that its outputs check out.
func TestEveryMetricPrints(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	for _, w := range bf.Workloads {
		h, ok := tinyHorizon[w.Name]
		if !ok {
			t.Fatalf("workload %s has no self-test horizon", w.Name)
		}
		for trace, want := range [][]struct{ Name, Unit string }{bf.EndToEnd, bf.PerLayer} {
			t.Run(w.Name+"/trace"+strconv.Itoa(trace), func(t *testing.T) {
				code, out, res := invoke(t, "--workload", w.Name, "--trace", strconv.Itoa(trace),
					"--horizon", strconv.FormatFloat(h, 'g', -1, 64))
				if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("exit %d, result %+v\n%s", code, res, out)
				}
				if !strings.Contains(out, "error_rate 0 fraction") {
					t.Errorf("error_rate not printed as 0:\n%s", out)
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics printed, BENCHMARK.json declares %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					switch {
					case !ok || got.Value == nil:
						t.Errorf("metric %s missing", m.Name)
					case got.Unit != m.Unit:
						t.Errorf("metric %s has unit %q, want %q", m.Name, got.Unit, m.Unit)
					case !strings.Contains(out, m.Name):
						t.Errorf("metric %s missing from the table", m.Name)
					}
				}
				if trace == 1 {
					var sum float64
					for name, v := range res.Metrics {
						if strings.HasSuffix(name, ".self_frac") {
							sum += *v.Value
						}
					}
					if sum < 0.999999 || sum > 1.000001 {
						t.Errorf("self_frac shares sum to %v, want 1", sum)
					}
				}
			})
		}
	}
}

// TestWrongDigestFails checks that a recorded digest the outputs do not
// match shows up as failed operations, a nonzero error_rate and a
// failing exit code.
func TestWrongDigestFails(t *testing.T) {
	table := filepath.Join(t.TempDir(), "digests.json")
	wrong := `{"paper50": {"horizon_s": 4, "seeds": {"1": "` + strings.Repeat("0", 64) + `"}}}`
	if err := os.WriteFile(table, []byte(wrong), 0o644); err != nil {
		t.Fatal(err)
	}
	code, out, res := invoke(t, "--workload", "paper50", "--seed", "1", "--horizon", "4", "--digests", table)
	if code == 0 || res.Correct || res.Failed != res.Attempted || res.Attempted == 0 {
		t.Fatalf("exit %d, result %+v; want every operation failed", code, res)
	}
	if !strings.Contains(out, "error_rate 1 fraction") {
		t.Errorf("error_rate not printed as 1:\n%s", out)
	}
}

func TestClassify(t *testing.T) {
	for _, c := range []struct {
		frames []string
		want   string
	}{
		{[]string{"repro/internal/sim.(*calendarQueue).insert", "repro/internal/sim.(*Scheduler).Run"}, "sim"},
		{[]string{"runtime.memmove", "repro/internal/phys.(*Channel).buildRow", "repro/internal/sim.(*Scheduler).Step"}, "phys"},
		{[]string{"repro/internal/geom.Point.Dist2", "repro/internal/mobility.(*Waypoint).At"}, "mobility"},
		{[]string{"repro/internal/power.(*Registry).Check", "repro/internal/mac.(*MAC).tx"}, "ctrl"},
		{[]string{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "repro/internal/mac.(*MAC).tx"}, "gc"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "gc"},
		{[]string{"runtime.futex", "runtime.findRunnable", "runtime.schedule"}, "other"},
	} {
		if got := classify(c.frames); got != c.want {
			t.Errorf("classify(%q) = %s, want %s", c.frames, got, c.want)
		}
	}
}
