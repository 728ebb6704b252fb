package scenario

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/mac"
	"repro/internal/sim"
)

// BenchmarkScaleRun times whole runs at the scale preset's
// constant-density geometry (field grows as sqrt(n/50), flows at the
// paper's 1:5 ratio) at n=500 and n=2000, mobile, plus n=500 pinned on
// the grid topology. It is the only whole-run number at n=2000 (the
// perfbench workloads stop at n=500) and the only one that exercises
// the link-row cache: static placements reuse ~99% of their rows, the
// mobile cases none.
func BenchmarkScaleRun(b *testing.B) {
	cases := []struct {
		n        int
		topology string
	}{{500, ""}, {2000, ""}, {500, TopologyGrid}}
	for _, tc := range cases {
		n := tc.n
		// Traffic starts at the default t=1s, so 2 simulated seconds
		// buys one full second of offered load at both sizes.
		dur := 2 * sim.Second
		side := 1000 * math.Sqrt(float64(n)/50)
		name := fmt.Sprintf("n=%d", n)
		if tc.topology != "" {
			name += "/topology=" + tc.topology
		}
		b.Run(name, func(b *testing.B) {
			o := Options{
				Scheme:          mac.Basic, // PCMAC's ctrl IDs cap at 256 nodes
				Nodes:           n,
				FieldW:          side,
				FieldH:          side,
				Flows:           n / 5,
				OfferedLoadKbps: 250,
				Duration:        dur,
				Warmup:          dur / 4,
				Seed:            1,
				Topology:        tc.topology,
			}
			var events uint64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := Run(o)
				if err != nil {
					b.Fatal(err)
				}
				events = res.Events
			}
			b.StopTimer()
			b.ReportMetric(float64(events), "events")
		})
	}
}
