package sim

import (
	"fmt"
	"math/rand"
	"testing"
)

// BenchmarkSchedulerChurn measures the schedule/cancel/fire cycle that
// dominates MAC timer traffic: every frame arms a timeout, most timeouts
// are cancelled before firing, and the rest fire. The churn runs on the
// pooled timer path, so the loop is allocation-free and the number is
// the queue operations themselves, not the garbage collector.
//
// The pending-population axis is what separates the timing wheel from
// the binary-heap oracle, benchmarked alongside it for reference: the
// heap pays O(log n) pointer-chasing sift chains against the backlog on
// every operation, while the wheel's churn stays in its front and its
// lowest level, and the backlog is touched only when it cascades. 1M
// pending approximates a 1000-node run's standing timer load.
func BenchmarkSchedulerChurn(b *testing.B) {
	queues := []struct {
		name string
		new  func() eventQueue
	}{
		{"wheel", func() eventQueue { return newTimingWheel() }},
		{"heap", func() eventQueue { return &binaryHeap{} }},
	}
	for _, q := range queues {
		for _, pending := range []int{0, 100_000, 1_000_000} {
			b.Run(fmt.Sprintf("q=%s/pending=%d", q.name, pending), func(b *testing.B) {
				s := newScheduler(q.new())
				rng := rand.New(rand.NewSource(1))
				fn := func() {}
				// The backlog: timers spread over the next second, far
				// enough out that the churn loop below always pops its
				// own near-term event.
				for i := 0; i < pending; i++ {
					s.Schedule(Millisecond+Duration(rng.Intn(int(Second))), fn)
				}
				tm := NewTimer(s, fn)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					// One cancelled timeout (the common CTS-timeout
					// path)...
					tm.Start(10)
					tm.Stop()
					// ...and one that fires.
					tm.Start(1)
					s.Step()
				}
			})
		}
	}
}

// BenchmarkTimerChurn measures the Timer Start/Stop/expiry cycle used by
// the MAC state machines (defer, backoff, NAV, CTS/ACK timeouts).
func BenchmarkTimerChurn(b *testing.B) {
	s := NewScheduler()
	t := NewTimer(s, func() {})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.Start(10)
		t.Stop()
		t.Start(1)
		s.Step()
	}
}
