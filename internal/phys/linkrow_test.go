package phys

import (
	"testing"

	"repro/internal/geom"
	"repro/internal/sim"
)

// countingHandler tallies begin-arrival deliveries.
type countingHandler struct{ begins int }

func (h *countingHandler) RadioRxBegin(*Transmission, float64)  { h.begins++ }
func (h *countingHandler) RadioRx(*Transmission, float64, bool) {}
func (h *countingHandler) RadioCarrierBusy()                    {}
func (h *countingHandler) RadioCarrierIdle()                    {}
func (h *countingHandler) RadioTxDone(*Transmission)            {}

// TestLinkRowInvalidatedByAttach pins the attachGen invalidation: a
// radio attached after a link row was built (and cached under a frozen
// epoch) must still hear subsequent frames.
func TestLinkRowInvalidatedByAttach(t *testing.T) {
	sched := sim.NewScheduler()
	par := DefaultParams()
	ch := NewChannel(sched, NewTwoRayGround(par), par)
	ch.SetPositionEpoch(func() uint64 { return 0 }) // static world

	a := ch.AttachRadio(0, func() geom.Point { return geom.Point{} }, &countingHandler{})
	hb := &countingHandler{}
	ch.AttachRadio(1, func() geom.Point { return geom.Point{X: 100} }, hb)

	// Build and use the row once.
	a.Transmit(0.2818, 1024, 100*sim.Microsecond, nil)
	sched.RunAll()
	if hb.begins != 1 {
		t.Fatalf("first frame: b heard %d begins, want 1", hb.begins)
	}

	// Late joiner inside decode range must invalidate the cached row.
	hc := &countingHandler{}
	ch.AttachRadio(2, func() geom.Point { return geom.Point{X: 0, Y: 120} }, hc)
	a.Transmit(0.2818, 1024, 100*sim.Microsecond, nil)
	sched.RunAll()
	if hc.begins != 1 {
		t.Fatalf("late joiner heard %d begins, want 1", hc.begins)
	}
	if hb.begins != 2 {
		t.Fatalf("b heard %d begins total, want 2", hb.begins)
	}
}

// TestLinkRowEpochInvalidation moves a node between frames under a
// hand-rolled epoch counter and checks deliveries follow the new
// geometry only once the epoch advances.
func TestLinkRowEpochInvalidation(t *testing.T) {
	sched := sim.NewScheduler()
	par := DefaultParams()
	ch := NewChannel(sched, NewTwoRayGround(par), par)
	epoch := uint64(0)
	ch.SetPositionEpoch(func() uint64 { return epoch })

	pos := geom.Point{X: 100} // in decode range of the max power level
	a := ch.AttachRadio(0, func() geom.Point { return geom.Point{} }, &countingHandler{})
	hb := &countingHandler{}
	ch.AttachRadio(1, func() geom.Point { return pos }, hb)

	a.Transmit(0.2818, 1024, 100*sim.Microsecond, nil)
	sched.RunAll()
	if hb.begins != 1 {
		t.Fatalf("in range: %d begins, want 1", hb.begins)
	}

	// Teleport b out of even carrier-sense range and advance the epoch:
	// the cached row must be rebuilt and the delivery dropped.
	pos = geom.Point{X: 5000}
	epoch++
	a.Transmit(0.2818, 1024, 100*sim.Microsecond, nil)
	sched.RunAll()
	if hb.begins != 1 {
		t.Fatalf("after move: %d begins, want still 1", hb.begins)
	}
}

// TestRowForSortedInsert pins the sorted-slice power-level cache: rows
// inserted in arbitrary order end up sorted, repeat lookups hit, and
// each level keeps its own row.
func TestRowForSortedInsert(t *testing.T) {
	sched := sim.NewScheduler()
	par := DefaultParams()
	ch := NewChannel(sched, NewTwoRayGround(par), par)
	r := ch.AttachRadio(0, func() geom.Point { return geom.Point{} }, benchHandler{})

	order := []float64{30.53e-3, 1e-3, 281.8e-3, 3.45e-3, 90.8e-3}
	for i, p := range order {
		row, cached := r.rowFor(p)
		if cached {
			t.Fatalf("level %g reported cached on first lookup", p)
		}
		row.epoch = uint64(i + 1) // tag to verify identity on re-lookup
	}
	for i, p := range order {
		row, cached := r.rowFor(p)
		if !cached {
			t.Fatalf("level %g missed after insert", p)
		}
		if row.epoch != uint64(i+1) {
			t.Fatalf("level %g returned another level's row (tag %d, want %d)", p, row.epoch, i+1)
		}
	}
	for i := 1; i < len(r.rows); i++ {
		if r.rows[i-1].powerW >= r.rows[i].powerW {
			t.Fatalf("rows not sorted by power: %v vs %v", r.rows[i-1].powerW, r.rows[i].powerW)
		}
	}
	if len(r.rows) != len(order) {
		t.Fatalf("expected %d cached rows, have %d", len(order), len(r.rows))
	}
}
