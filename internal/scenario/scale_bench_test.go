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
// paper's 1:5 ratio) at n=500 and n=2000. It is the only whole-run
// number at n=2000: the perfbench workloads stop at n=500.
func BenchmarkScaleRun(b *testing.B) {
	for _, n := range []int{500, 2000} {
		// Traffic starts at the default t=1s, so 2 simulated seconds
		// buys one full second of offered load at both sizes.
		dur := 2 * sim.Second
		side := 1000 * math.Sqrt(float64(n)/50)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
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
