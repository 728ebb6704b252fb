package sim

import (
	"container/heap"
	"math/bits"
	"slices"
)

// eventQueue is the scheduler's pending-event set. The contract every
// implementation must honour:
//
//   - Total order. popMin returns the queued event with the smallest
//     (at, seq) key — an exact minimum, never merely an equal-time
//     approximation — or nil when that key's time is past its limit
//     (Run's horizon), leaving the event queued. Same-instant events
//     therefore pop in schedule order, which is what makes a run's
//     event trace (and its JSONL output) independent of the queue
//     implementation.
//   - Position bookkeeping. While an event is queued, its index (and,
//     for the timing wheel, next/prev) fields belong to the queue.
//     popMin and remove must leave index negative: index >= 0 is the
//     kernel-wide "still pending" predicate (Event.Pending, Cancel).
//   - Pushes at or after now. The scheduler has range-checked e.at
//     against now, so push never sees a time before the last popped
//     event, nor before the limit of a popMin that returned nil (Run
//     then clamps now up to its horizon).
//   - remove is called only for queued events (index >= 0), exactly
//     once per queued lifetime.
type eventQueue interface {
	push(e *Event)
	popMin(limit Time) *Event
	remove(e *Event)
	len() int
}

// binaryHeap adapts the original container/heap implementation to the
// eventQueue interface. Event.index is the heap position. The scheduler
// always runs on the timing wheel; the heap is the package tests'
// oracle, whose pop order the wheel must reproduce exactly.
type binaryHeap struct{ h eventHeap }

func (b *binaryHeap) push(e *Event) { heap.Push(&b.h, e) }

func (b *binaryHeap) popMin(limit Time) *Event {
	if len(b.h) == 0 || b.h[0].at > limit {
		return nil
	}
	return heap.Pop(&b.h).(*Event)
}

func (b *binaryHeap) remove(e *Event) { heap.Remove(&b.h, e.index) }

func (b *binaryHeap) len() int { return len(b.h) }

type eventHeap []*Event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *eventHeap) Push(x any) {
	e := x.(*Event)
	e.index = len(*h)
	*h = append(*h, e)
}
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.index = -1
	*h = old[:n-1]
	return e
}

// qitem is a front entry: the ordering key inlined next to the event
// pointer, so the front's sort and binary searches compare keys from one
// contiguous slice instead of chasing *Event pointers. ev is nil for a
// cancelled entry (a tombstone), whose key still orders the search.
type qitem struct {
	at  Time
	seq uint64
	ev  *Event
}

// qcmp orders front entries by (at, seq). It is small enough to inline
// into search, which every same-tick push and front cancel runs.
func qcmp(a, b qitem) int {
	switch {
	case a.at < b.at || a.at == b.at && a.seq < b.seq:
		return -1
	case a.at == b.at && a.seq == b.seq:
		return 0
	}
	return 1
}

const (
	// wheelTickShift sets the level-0 slot width: one tick is 2^8 =
	// 256 ns, so a level-L slot spans 2^(8+6L) ns.
	wheelTickShift = 8

	// wheelSlotBits / wheelSlots: each level has 64 slots, one bit of a
	// uint64 occupancy word apiece.
	wheelSlotBits = 6
	wheelSlots    = 1 << wheelSlotBits

	// wheelLevels covers every Time: 8 + 6*10 = 68 bits >= 63.
	wheelLevels = 10

	// frontSlot marks (in Event.index) an event held in the sorted
	// front rather than a wheel slot; wheel events store their slot
	// number level*wheelSlots + slot there.
	frontSlot = wheelLevels * wheelSlots
)

// timingWheel is a hierarchical timing wheel (Varghese & Lauck 1987,
// the structure behind the Linux and tokio timers) that pops in the
// exact (at, seq) order. Its geometry is fixed: there is no slot width
// to tune from the traffic and nothing to rebuild as the population
// grows or shrinks.
//
// Time is counted in 256 ns ticks, written as base-64 digits. cur is
// the tick of the front window. A wheel event is filed at the level of
// the highest digit in which its tick differs from cur, in the slot
// named by its own digit there: it shares every higher digit with cur,
// and its digit at its level is larger. So every level-L event precedes
// every level-(L+1) event, slots within a level are in time order, and
// the next events lie in the lowest set bit of the lowest non-empty
// level's occupancy word. Taking a level>0 slot moves cur to the slot's
// start and re-files its events at lower levels (a cascade); an event
// cascades at most once per level.
//
// Events in cur's tick live in front, one slice sorted by (at, seq) and
// popped by advancing head. Taking a level-0 slot copies its events
// there once and sorts them; a push into cur's tick (a same-slot
// schedule) binary-search inserts; a cancel there leaves a tombstone.
//
// Invariant: every front event's tick <= cur < every wheel event's
// tick. popMin moves cur only to the start of a slot that begins at or
// before its limit, so cur never passes the tick of the last popped
// event or of Run's horizon: the scheduler's clock never sits below
// cur, and pushes land at or above it. (A push below cur would still be
// ordered correctly, through the front, but each would pay an insert
// into an ever-wider sorted slice.)
//
// Slots are intrusive doubly linked lists through Event.next/prev, so
// push and cancel are O(1) and no slot owns an array.
type timingWheel struct {
	cur   uint64                           // tick of the front window
	occ   [wheelLevels]uint64              // bit s of occ[L]: slot s of level L is non-empty
	slots [wheelLevels * wheelSlots]*Event // list heads, level*wheelSlots + slot
	front []qitem                          // sorted (at, seq); front[:head] already popped
	head  int
	n     int // pending events, tombstones excluded
}

func newTimingWheel() *timingWheel { return &timingWheel{} }

func (w *timingWheel) len() int { return w.n }

func (w *timingWheel) push(e *Event) {
	w.n++
	if uint64(e.at)>>wheelTickShift <= w.cur {
		w.insertFront(e)
		return
	}
	w.file(e)
}

// file links e into its wheel slot. Requires e's tick > cur.
func (w *timingWheel) file(e *Event) {
	t := uint64(e.at) >> wheelTickShift
	level := (bits.Len64(t^w.cur) - 1) / wheelSlotBits
	s := int(t>>(wheelSlotBits*level)) & (wheelSlots - 1)
	i := level*wheelSlots + s
	head := w.slots[i]
	e.prev = nil
	e.next = head
	if head != nil {
		head.prev = e
	}
	w.slots[i] = e
	w.occ[level] |= 1 << s
	e.index = i
}

// search returns the first position at or after head whose key is not
// below it.
func (w *timingWheel) search(it qitem) int {
	lo, hi := w.head, len(w.front)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if qcmp(w.front[m], it) < 0 {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// insertFront binary-search inserts e into the front, behind every
// earlier key.
func (w *timingWheel) insertFront(e *Event) {
	it := qitem{at: e.at, seq: e.seq, ev: e}
	p := w.search(it)
	w.front = append(w.front, qitem{})
	copy(w.front[p+1:], w.front[p:])
	w.front[p] = it
	e.index = frontSlot
}

func (w *timingWheel) popMin(limit Time) *Event {
	for {
		for ; w.head < len(w.front); w.head++ {
			it := w.front[w.head]
			if it.ev == nil {
				continue // popped or cancelled
			}
			if it.at > limit {
				return nil
			}
			w.front[w.head].ev = nil
			w.head++
			w.n--
			it.ev.index = -1
			return it.ev
		}
		if !w.refill(limit) {
			return nil
		}
	}
}

// refill replaces the drained front with the next non-empty window,
// cascading higher-level slots down until one reaches cur's tick. It
// reports false, leaving the front empty, when the wheel is empty or
// its next slot starts after limit.
func (w *timingWheel) refill(limit Time) bool {
	w.front = w.front[:0] // popped and cancelled entries hold no pointer
	w.head = 0
	for len(w.front) == 0 {
		level := 0
		for level < wheelLevels && w.occ[level] == 0 {
			level++
		}
		if level == wheelLevels {
			return false
		}
		s := bits.TrailingZeros64(w.occ[level])
		// The slot's start: cur's digits above level, s at level,
		// zeros below.
		above := uint(wheelSlotBits * (level + 1))
		start := w.cur>>above<<above | uint64(s)<<(wheelSlotBits*level)
		if Time(start<<wheelTickShift) > limit {
			return false
		}
		w.cur = start
		w.occ[level] &^= 1 << s
		i := level*wheelSlots + s
		e := w.slots[i]
		w.slots[i] = nil
		for e != nil {
			next := e.next
			e.next, e.prev = nil, nil
			if uint64(e.at)>>wheelTickShift == w.cur {
				w.front = append(w.front, qitem{at: e.at, seq: e.seq, ev: e})
				e.index = frontSlot
			} else {
				w.file(e)
			}
			e = next
		}
	}
	slices.SortFunc(w.front, qcmp)
	return true
}

func (w *timingWheel) remove(e *Event) {
	if e.index == frontSlot {
		w.front[w.search(qitem{at: e.at, seq: e.seq})].ev = nil
	} else {
		i := e.index
		if e.prev != nil {
			e.prev.next = e.next
		} else {
			w.slots[i] = e.next
			if e.next == nil {
				w.occ[i/wheelSlots] &^= 1 << (i % wheelSlots)
			}
		}
		if e.next != nil {
			e.next.prev = e.prev
		}
		e.next, e.prev = nil, nil
	}
	w.n--
	e.index = -1
}
