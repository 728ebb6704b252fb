package sim

import (
	"encoding/binary"
	"math/rand"
	"testing"
)

// oracleDelay turns a class byte and a raw value into a delay from now
// aimed at one part of the timing wheel: class%12 == 0 is a tie (0 ns),
// 1 stays inside now's 256 ns tick (a same-slot schedule), and 2..11
// pick wheel level 0..9, drawing from that level's whole span of
// 2^(8+6(L+1)) ns. Level 9 reaches MaxTime; every delay is clipped so
// now+d never passes it.
func oracleDelay(class byte, v uint64, now Time) Duration {
	room := uint64(MaxTime-now) + 1 // delays in [0, room) stay representable
	var span uint64
	switch c := int(class % 12); c {
	case 0:
		return 0
	case 1:
		span = 1<<wheelTickShift - uint64(now)&(1<<wheelTickShift-1)
	default:
		if b := wheelTickShift + wheelSlotBits*(c-1); b < 63 {
			span = 1 << b
		} else {
			span = room
		}
	}
	if span > room {
		span = room
	}
	return Duration(v % span)
}

// wheelLevel reports the wheel level e is filed at, or -1 when it sits
// in the front (or is not on a timing wheel's books at all).
func wheelLevel(e *Event) int {
	if e.index < 0 || e.index >= frontSlot {
		return -1
	}
	return e.index / wheelSlots
}

// TestQueuePopStreamsIdentical drives the two eventQueue implementations
// directly with the same randomized push/remove/pop sequence and
// requires identical (at, seq) pop streams and lengths — the total-order
// contract that lets the binary heap serve as the timing wheel's oracle.
// Delays and pop limits land on every wheel level, from ties up to
// MaxTime, and removes hit the wheel's front.
func TestQueuePopStreamsIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var levels, frontRemoves int
	for trial := 0; trial < 40; trial++ {
		w := newTimingWheel()
		qs := []eventQueue{&binaryHeap{}, w}
		// live[i] mirrors the pending events in qs[i]; the same slot is
		// always the same logical event (same seq) in both queues.
		live := [2][]*Event{}
		var now Time
		var seq uint64
		drop := func(j int) {
			for i, q := range qs {
				e := live[i][j]
				if e.index == frontSlot {
					frontRemoves++
				}
				q.remove(e)
				live[i][j] = live[i][len(live[i])-1]
				live[i] = live[i][:len(live[i])-1]
			}
		}
		push := func(at Time) {
			for i, q := range qs {
				e := &Event{at: at, seq: seq, index: -1}
				q.push(e)
				live[i] = append(live[i], e)
				if i == 1 {
					if l := wheelLevel(e); l >= 0 {
						levels |= 1 << l
					}
				}
			}
			seq++
		}
		steps := 400 + rng.Intn(400)
		for op := 0; op < steps; op++ {
			switch r := rng.Float64(); {
			case r < 0.48:
				push(now.Add(oracleDelay(byte(rng.Intn(12)), rng.Uint64(), now)))
			case r < 0.5:
				// A burst of ties and near-ties in one 256 ns window,
				// which the front must sort as one batch.
				base := now.Add(oracleDelay(byte(rng.Intn(12)), rng.Uint64(), now))
				for k := 33 + rng.Intn(64); k > 0; k-- {
					at := base&^(1<<wheelTickShift-1) + Time(rng.Intn(1<<wheelTickShift))
					push(max(at, now))
				}
			case r < 0.65 && len(live[0]) > 0:
				drop(rng.Intn(len(live[0])))
			default:
				// Pop both, up to a limit on a random level or without
				// one. A nil pop stands for Run stopping at its horizon:
				// the clock clamps up to the limit, and half the time
				// the minimum is then cancelled — on the wheel it sits
				// in the front when its window was taken.
				limit := MaxTime
				if r < 0.85 {
					limit = now.Add(oracleDelay(byte(rng.Intn(12)), rng.Uint64(), now))
				}
				a, b := qs[0].popMin(limit), qs[1].popMin(limit)
				if (a == nil) != (b == nil) {
					t.Fatalf("trial %d op %d: pop mismatch: heap=%v wheel=%v", trial, op, a, b)
				}
				if a == nil {
					now = max(now, limit)
					if h := qs[0].(*binaryHeap).h; len(h) > 0 && rng.Intn(2) == 0 {
						for j, e := range live[0] {
							if e == h[0] {
								drop(j)
								break
							}
						}
					}
					break
				}
				if a.at != b.at || a.seq != b.seq {
					t.Fatalf("trial %d op %d: heap popped (%d,%d), wheel popped (%d,%d)",
						trial, op, a.at, a.seq, b.at, b.seq)
				}
				if a.at < now || a.at > limit {
					t.Fatalf("trial %d op %d: popped %v outside [%v, %v]", trial, op, a.at, now, limit)
				}
				now = a.at
				for i := range qs {
					for j, e := range live[i] {
						if e.seq == a.seq {
							live[i][j] = live[i][len(live[i])-1]
							live[i] = live[i][:len(live[i])-1]
							break
						}
					}
				}
			}
			if qs[0].len() != qs[1].len() {
				t.Fatalf("trial %d op %d: len mismatch: heap=%d wheel=%d", trial, op, qs[0].len(), qs[1].len())
			}
		}
		// Drain: the full remaining streams must match.
		for {
			a, b := qs[0].popMin(MaxTime), qs[1].popMin(MaxTime)
			if (a == nil) != (b == nil) {
				t.Fatalf("trial %d drain: pop mismatch", trial)
			}
			if a == nil {
				break
			}
			if a.at != b.at || a.seq != b.seq {
				t.Fatalf("trial %d drain: heap (%d,%d) vs wheel (%d,%d)", trial, a.at, a.seq, b.at, b.seq)
			}
		}
		if w.len() != 0 {
			t.Fatalf("trial %d: wheel len %d after drain", trial, w.len())
		}
	}
	if levels != 1<<wheelLevels-1 {
		t.Errorf("pushes reached wheel levels %010b; want all %d", levels, wheelLevels)
	}
	if frontRemoves == 0 {
		t.Error("no remove hit the wheel's front")
	}
}

// fire is one entry of a scheduler fire trace: when an event ran and
// which logical event it was.
type fire struct {
	at    Time
	label int
}

// oracleRun is one scheduler run under the byte-coded operation mix
// shared by TestSchedulerTraceIdentical and FuzzQueueOracle.
type oracleRun struct {
	trace   []fire
	pending []int // Pending() after every operation

	// Timing-wheel coverage, meaningful only when q is a timing wheel:
	// the levels Schedule handles were filed at, and the cancels that
	// hit the front.
	levels       int
	frontCancels int
}

// runOracleOps decodes data into scheduler operations and runs them on
// a scheduler over q, then drains it. Each operation is one op byte
// followed by its arguments; a missing argument byte reads as zero, and
// decoding stops when the op bytes run out. The op byte's range picks
// the operation in the trace test's mix: schedule a closure (35%), a
// typed event (10%), cancel a handle (10%), start or stop a timer
// (15%), Step (15%) or Run to a horizon (15%).
func runOracleOps(q eventQueue, data []byte) oracleRun {
	var r oracleRun
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	word := func() uint64 {
		var buf [8]byte
		n := copy(buf[:], data)
		data = data[n:]
		return binary.LittleEndian.Uint64(buf[:])
	}
	s := newScheduler(q)
	delay := func() Duration {
		c := next()
		return oracleDelay(c, word(), s.Now())
	}
	var handles []*Event
	var label int
	timers := make([]*Timer, 4)
	for i := range timers {
		i := i
		timers[i] = NewTimer(s, func() { r.trace = append(r.trace, fire{s.Now(), -1 - i}) })
	}
	for len(data) > 0 {
		switch op := next(); {
		case op < 90:
			l := label
			label++
			h := s.Schedule(delay(), func() { r.trace = append(r.trace, fire{s.Now(), l}) })
			if lv := wheelLevel(h); lv >= 0 {
				r.levels |= 1 << lv
			}
			handles = append(handles, h)
		case op < 115:
			l := label
			label++
			rec := &funcHandler{}
			rec.fn = func() { r.trace = append(r.trace, fire{s.Now(), 100000 + l}) }
			s.ScheduleEvent(delay(), rec, int32(l), nil, 0)
		case op < 141:
			if len(handles) > 0 {
				h := handles[int(next())%len(handles)]
				if h.index == frontSlot {
					r.frontCancels++
				}
				s.Cancel(h)
			}
		case op < 179:
			tm := timers[next()%4]
			if next()%5 == 0 {
				tm.Stop()
			} else {
				tm.Start(delay())
			}
		case op < 218:
			s.Step()
		default:
			s.Run(s.Now().Add(delay()))
		}
		r.pending = append(r.pending, s.Pending())
	}
	s.RunAll()
	r.pending = append(r.pending, s.Pending())
	return r
}

// requireSameRun fails unless the heap run h and the wheel run w fired
// the same trace with the same Pending() counts.
func requireSameRun(t *testing.T, h, w oracleRun) {
	t.Helper()
	if len(h.pending) != len(w.pending) {
		t.Fatalf("ran %d ops on the heap, %d on the wheel", len(h.pending), len(w.pending))
	}
	for i := range h.pending {
		if h.pending[i] != w.pending[i] {
			t.Fatalf("op %d: Pending heap=%d wheel=%d", i, h.pending[i], w.pending[i])
		}
	}
	if len(h.trace) != len(w.trace) {
		t.Fatalf("trace length heap=%d wheel=%d", len(h.trace), len(w.trace))
	}
	for i := range h.trace {
		if h.trace[i] != w.trace[i] {
			t.Fatalf("trace[%d] heap=%+v wheel=%+v", i, h.trace[i], w.trace[i])
		}
	}
}

// oracleSeed returns n pseudo-random operation bytes for runOracleOps.
func oracleSeed(seed int64, n int) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

// TestSchedulerTraceIdentical runs the same randomized schedule / cancel
// / timer / Step / horizon workload through a heap scheduler and a
// timing-wheel scheduler and requires the identical fire trace and
// Pending() after every operation. Across the seeds, Schedule handles
// must land on every wheel level and some cancels must hit the front.
func TestSchedulerTraceIdentical(t *testing.T) {
	var levels, frontCancels int
	for seed := int64(1); seed <= 5; seed++ {
		data := oracleSeed(seed, 20000)
		h := runOracleOps(&binaryHeap{}, data)
		w := runOracleOps(newTimingWheel(), data)
		requireSameRun(t, h, w)
		if len(h.trace) == 0 {
			t.Fatalf("seed %d: nothing fired", seed)
		}
		levels |= w.levels
		frontCancels += w.frontCancels
	}
	if levels != 1<<wheelLevels-1 {
		t.Errorf("Schedule handles reached wheel levels %010b; want all %d", levels, wheelLevels)
	}
	if frontCancels == 0 {
		t.Error("no Cancel hit the wheel's front")
	}
}

// TestWheelFarFuture: far-future events (including MaxTime, on the top
// level) must sort correctly against near-term ones and be cancellable
// while parked on a high level.
func TestWheelFarFuture(t *testing.T) {
	s := NewScheduler()
	var order []string
	maxEv := s.At(MaxTime, func() { order = append(order, "max") })
	far := s.At(5000*Time(Second), func() { order = append(order, "far-cancelled") })
	s.At(1000*Time(Second), func() { order = append(order, "far") })
	s.Schedule(Millisecond, func() { order = append(order, "near") })
	if got := s.Pending(); got != 4 {
		t.Fatalf("Pending = %d; want 4", got)
	}
	if got := wheelLevel(maxEv); got != wheelLevels-1 {
		t.Fatalf("MaxTime filed at level %d; want %d", got, wheelLevels-1)
	}
	if got := wheelLevel(far); got < 4 {
		t.Fatalf("5000 s event filed at level %d; want a high level", got)
	}
	s.Cancel(far)
	if far.Pending() {
		t.Fatal("cancelled parked event still pending")
	}
	if got := s.Pending(); got != 3 {
		t.Fatalf("Pending = %d after cancel; want 3", got)
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

// TestWheelPushAfterHorizonClamp covers schedules made after Run stops
// at its horizon, which clamps the clock up to it. A far event must not
// drag the cursor past the horizon (a later near-term push would land
// below it), and when the horizon falls inside a taken 256 ns window,
// pushes and cancels around the event left in the front must keep the
// exact order.
func TestWheelPushAfterHorizonClamp(t *testing.T) {
	w := newTimingWheel()
	s := newScheduler(w)
	var order []string
	s.At(1000*Time(Second), func() { order = append(order, "far") })
	s.Run(Time(Second))
	if s.Now() != Time(Second) {
		t.Fatalf("clock = %v; want 1s", s.Now())
	}
	if cursor := Time(w.cur << wheelTickShift); cursor > s.Now() {
		t.Fatalf("cursor %v ran past the clamped clock %v", cursor, s.Now())
	}
	near := s.Schedule(Millisecond, func() { order = append(order, "near") })
	if near.index == frontSlot {
		t.Fatal("a push after the clamp went to the front; it belongs on the wheel")
	}

	// 2 s is a tick boundary. Run to 50 ns into that tick: the
	// window is taken into the front, but its events lie past the
	// horizon and stay queued.
	base := Time(2 * Second)
	s.At(base+100, func() { order = append(order, "+100ns") })
	gone := s.At(base+200, func() { order = append(order, "cancelled") })
	s.Run(base + 50)
	if got := []string{"near"}; len(order) != 1 || order[0] != got[0] {
		t.Fatalf("fired %v by the horizon; want %v", order, got)
	}
	if gone.index != frontSlot {
		t.Fatalf("event in the horizon's tick at index %d; want the front", gone.index)
	}
	s.Schedule(10, func() { order = append(order, "+60ns") })
	s.Cancel(gone)
	s.RunAll()
	want := []string{"near", "+60ns", "+100ns", "far"}
	if len(order) != len(want) {
		t.Fatalf("fired %v; want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("fired %v; want %v", order, want)
		}
	}
}

// TestWheelCascadeChurn fills the wheel with 20k events aimed at levels
// 0..4 (delays up to ~275 simulated seconds), drains half, refills 20k
// aimed at levels 0..5 (up to ~4.9 simulated hours), and drains the
// rest: most events cascade through several levels. The wheel scheduler must fire the exact sequence the
// heap oracle fires, with the clock never going back.
func TestWheelCascadeChurn(t *testing.T) {
	const n = 20000
	run := func(q eventQueue) []int {
		rng := rand.New(rand.NewSource(7))
		s := newScheduler(q)
		var fired []int
		var last Time
		var label int
		schedule := func(maxLevel int) {
			l := label
			label++
			d := oracleDelay(byte(2+rng.Intn(maxLevel+1)), rng.Uint64(), s.Now())
			s.Schedule(d, func() {
				if s.Now() < last {
					t.Fatalf("clock went backwards: %v after %v", s.Now(), last)
				}
				last = s.Now()
				fired = append(fired, l)
			})
		}
		for i := 0; i < n; i++ {
			schedule(4)
		}
		for i := 0; i < n/2; i++ {
			s.Step()
		}
		for i := 0; i < n; i++ {
			schedule(5)
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
	h, w := run(&binaryHeap{}), run(newTimingWheel())
	for i := range h {
		if h[i] != w[i] {
			t.Fatalf("fire %d: heap fired event %d, wheel fired event %d", i, h[i], w[i])
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
