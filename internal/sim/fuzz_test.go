package sim

import "testing"

// FuzzQueueOracle decodes arbitrary bytes into schedule, typed-event,
// cancel, timer, Step and Run(horizon) operations (runOracleOps) and
// requires the binary-heap oracle and the timing wheel to fire the
// identical trace with identical Pending() counts. Plain go test runs
// only the seeds: short streams in TestSchedulerTraceIdentical's mix.
func FuzzQueueOracle(f *testing.F) {
	for seed := int64(1); seed <= 5; seed++ {
		f.Add(oracleSeed(seed, 512))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		requireSameRun(t, runOracleOps(&binaryHeap{}, data), runOracleOps(newTimingWheel(), data))
	})
}
