package sim

import (
	"math/rand"
	"testing"
)

// TestQueuePopStreamsIdentical drives the two eventQueue implementations
// directly with the same randomized push/remove/pop sequence and requires
// identical (at, seq) pop streams — the total-order contract that lets the
// binary heap serve as the calendar queue's oracle.
func TestQueuePopStreamsIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		qs := []eventQueue{&binaryHeap{}, newCalendarQueue()}
		// pending[i] mirrors the live events in qs[i]; the same slot is
		// always the same logical event in both queues.
		pending := [2][]*Event{}
		var now Time
		var seq uint64
		push := func(at Time) {
			for i, q := range qs {
				e := &Event{at: at, seq: seq, index: -1}
				q.push(e)
				pending[i] = append(pending[i], e)
			}
			seq++
		}
		popBoth := func() (a, b *Event) {
			return qs[0].popMin(), qs[1].popMin()
		}
		steps := 400 + rng.Intn(400)
		for op := 0; op < steps; op++ {
			switch r := rng.Float64(); {
			case r < 0.55:
				// Mostly near-term, sometimes same-instant (ties),
				// sometimes a year-overflowing outlier.
				var d Duration
				switch k := rng.Float64(); {
				case k < 0.2:
					d = 0
				case k < 0.9:
					d = Duration(rng.Intn(int(5 * Millisecond)))
				default:
					d = Duration(rng.Intn(int(100*Second))) + Second
				}
				push(now.Add(d))
			case r < 0.75 && len(pending[0]) > 0:
				// Remove the same random live event from both queues.
				j := rng.Intn(len(pending[0]))
				for i, q := range qs {
					e := pending[i][j]
					if e.Pending() {
						q.remove(e)
					}
					pending[i][j] = pending[i][len(pending[i])-1]
					pending[i] = pending[i][:len(pending[i])-1]
				}
			default:
				a, b := popBoth()
				if (a == nil) != (b == nil) {
					t.Fatalf("trial %d op %d: pop mismatch: heap=%v calendar=%v", trial, op, a, b)
				}
				if a == nil {
					continue
				}
				if a.at != b.at || a.seq != b.seq {
					t.Fatalf("trial %d op %d: heap popped (%d,%d), calendar popped (%d,%d)",
						trial, op, a.at, a.seq, b.at, b.seq)
				}
				if a.at < now {
					t.Fatalf("trial %d op %d: pop went backwards: %v < %v", trial, op, a.at, now)
				}
				now = a.at
			}
			if qs[0].len() != qs[1].len() {
				t.Fatalf("trial %d op %d: len mismatch: heap=%d calendar=%d", trial, op, qs[0].len(), qs[1].len())
			}
		}
		// Drain: the full remaining streams must match.
		for {
			a, b := qs[0].popMin(), qs[1].popMin()
			if (a == nil) != (b == nil) {
				t.Fatalf("trial %d drain: pop mismatch", trial)
			}
			if a == nil {
				break
			}
			if a.at != b.at || a.seq != b.seq {
				t.Fatalf("trial %d drain: heap (%d,%d) vs calendar (%d,%d)", trial, a.at, a.seq, b.at, b.seq)
			}
		}
	}
}

// TestSchedulerTraceIdentical runs the same randomized schedule / cancel /
// timer / horizon workload through a heap scheduler and a calendar
// scheduler and requires the identical fire trace.
func TestSchedulerTraceIdentical(t *testing.T) {
	type fire struct {
		at    Time
		label int
	}
	run := func(q eventQueue, seed int64) []fire {
		rng := rand.New(rand.NewSource(seed))
		s := newScheduler(q)
		var trace []fire
		var handles []*Event
		var label int
		timers := make([]*Timer, 4)
		for i := range timers {
			i := i
			timers[i] = NewTimer(s, func() { trace = append(trace, fire{s.Now(), -1 - i}) })
		}
		for op := 0; op < 3000; op++ {
			switch r := rng.Float64(); {
			case r < 0.35:
				l := label
				label++
				var d Duration
				switch k := rng.Float64(); {
				case k < 0.15:
					d = 0
				case k < 0.85:
					d = Duration(rng.Intn(int(2 * Millisecond)))
				default:
					d = Duration(rng.Intn(int(30*Second))) + Second
				}
				handles = append(handles, s.Schedule(d, func() { trace = append(trace, fire{s.Now(), l}) }))
			case r < 0.45:
				l := label
				label++
				rec := &funcHandler{}
				rec.fn = func() { trace = append(trace, fire{s.Now(), 100000 + l}) }
				s.ScheduleEvent(Duration(rng.Intn(int(Millisecond))), rec, int32(l), nil, 0)
			case r < 0.55 && len(handles) > 0:
				s.Cancel(handles[rng.Intn(len(handles))])
			case r < 0.7:
				tm := timers[rng.Intn(len(timers))]
				if rng.Float64() < 0.8 {
					tm.Start(Duration(rng.Intn(int(Millisecond))))
				} else {
					tm.Stop()
				}
			case r < 0.85:
				s.Step()
			default:
				s.Run(s.Now().Add(Duration(rng.Intn(int(10 * Millisecond)))))
			}
		}
		s.RunAll()
		return trace
	}
	for seed := int64(1); seed <= 5; seed++ {
		h := run(&binaryHeap{}, seed)
		c := run(newCalendarQueue(), seed)
		if len(h) != len(c) {
			t.Fatalf("seed %d: trace length heap=%d calendar=%d", seed, len(h), len(c))
		}
		for i := range h {
			if h[i] != c[i] {
				t.Fatalf("seed %d: trace[%d] heap=%+v calendar=%+v", seed, i, h[i], c[i])
			}
		}
	}
}

// TestCalendarFarFuture covers the overflow ladder: far-future events
// (including MaxTime) must sort correctly against near-term ones and be
// cancellable while parked in the ladder.
func TestCalendarFarFuture(t *testing.T) {
	s := NewScheduler()
	var order []string
	s.At(MaxTime, func() { order = append(order, "max") })
	far := s.At(5000*Time(Second), func() { order = append(order, "far-cancelled") })
	s.At(1000*Time(Second), func() { order = append(order, "far") })
	s.Schedule(Millisecond, func() { order = append(order, "near") })
	if got := s.Pending(); got != 4 {
		t.Fatalf("Pending = %d; want 4", got)
	}
	s.Cancel(far)
	if far.Pending() {
		t.Fatal("cancelled ladder event still pending")
	}
	s.RunAll()
	want := []string{"near", "far", "max"}
	if len(order) != len(want) {
		t.Fatalf("fired %v; want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("fired %v; want %v", order, want)
		}
	}
	if s.Now() != MaxTime {
		t.Errorf("clock = %v; want MaxTime", s.Now())
	}
}

// TestCalendarReanchor covers the push-below-base rebuild: after Run's
// horizon clamp, the year can sit beyond now (advance jumped to a
// far-future ladder minimum), and a subsequent near-term schedule must
// still fire first.
func TestCalendarReanchor(t *testing.T) {
	s := NewScheduler()
	var order []string
	s.At(1000*Time(Second), func() { order = append(order, "far") })
	s.Run(Time(Second)) // peeks the far event, advancing the year to t=1000s
	if s.Now() != Time(Second) {
		t.Fatalf("clock = %v; want 1s", s.Now())
	}
	s.Schedule(Millisecond, func() { order = append(order, "near") })
	s.RunAll()
	if len(order) != 2 || order[0] != "near" || order[1] != "far" {
		t.Fatalf("fired %v; want [near far]", order)
	}
}

// TestCalendarResizeChurn pushes the population through several grow and
// shrink cycles and requires the calendar scheduler to fire the exact
// event sequence the heap oracle fires, with the clock never going back.
func TestCalendarResizeChurn(t *testing.T) {
	const n = 20000
	run := func(q eventQueue) []int {
		rng := rand.New(rand.NewSource(7))
		s := newScheduler(q)
		var fired []int
		var last Time
		var label int
		schedule := func(span Duration) {
			l := label
			label++
			s.Schedule(Duration(rng.Intn(int(span))), func() {
				if s.Now() < last {
					t.Fatalf("clock went backwards: %v after %v", s.Now(), last)
				}
				last = s.Now()
				fired = append(fired, l)
			})
		}
		for i := 0; i < n; i++ {
			schedule(Second)
		}
		// Drain halfway (forcing shrink), refill (forcing grow), drain all.
		for i := 0; i < n/2; i++ {
			s.Step()
		}
		for i := 0; i < n; i++ {
			schedule(2 * Second)
		}
		s.RunAll()
		if len(fired) != 2*n {
			t.Fatalf("fired %d events; want %d", len(fired), 2*n)
		}
		if s.Pending() != 0 {
			t.Fatalf("Pending = %d after drain", s.Pending())
		}
		return fired
	}
	h, c := run(&binaryHeap{}), run(newCalendarQueue())
	for i := range h {
		if h[i] != c[i] {
			t.Fatalf("fire %d: heap fired event %d, calendar fired event %d", i, h[i], c[i])
		}
	}
}

// TestCancelFiredPooledEvent is the regression test for the documented
// no-op: cancelling a pooled event after it has fired (and returned to
// the free list) must leave the scheduler untouched.
func TestCancelFiredPooledEvent(t *testing.T) {
	s := NewScheduler()
	var fired int
	rec := &funcHandler{fn: func() { fired++ }}
	stale := s.scheduleOwned(Time(Microsecond), rec)
	if !s.Step() {
		t.Fatal("Step fired nothing")
	}
	if fired != 1 {
		t.Fatalf("fired = %d; want 1", fired)
	}
	if stale.Pending() {
		t.Fatal("fired pooled event still pending")
	}
	// The struct is on the free list now; Cancel must be a no-op.
	s.Cancel(stale)
	s.cancelOwned(nil)
	s.Cancel(nil)

	// The scheduler must still work, and the recycled struct must be
	// reusable: the next pooled schedule draws it back from the pool.
	s.ScheduleEvent(Microsecond, rec, 0, nil, 0)
	if s.Pending() != 1 {
		t.Fatalf("Pending = %d; want 1", s.Pending())
	}
	s.RunAll()
	if fired != 2 {
		t.Fatalf("fired = %d; want 2", fired)
	}
}
