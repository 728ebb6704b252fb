package phys

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/sim"
)

// dialLevels is the paper's ten transmit power levels in watts, the
// discrete set link rows are keyed by.
var dialLevels = []float64{1e-3, 2e-3, 3.45e-3, 5.95e-3, 10.26e-3,
	17.7e-3, 30.53e-3, 52.65e-3, 90.8e-3, 281.8e-3}

// advance moves the scheduler's clock forward by d seconds.
func advance(sched *sim.Scheduler, d float64) {
	sched.At(sched.Now().Add(sim.DurationOf(d)), func() {})
	sched.RunAll()
}

// TestGridCandidatesProperty is the neighbour-list soundness property.
// For random placements and every power level, a list built at t0 and
// reused while everyone moves within the skin (rebuilt once the drift
// bound passes it) must (a) be sorted ascending (attach order) and
// cover the delivery-cutoff disk at the later positions, and (b) yield a link row equal to a linear walk over
// every radio exactly — same entries, same order, bit-identical
// received powers and delays. The radios move toward the transmitter's
// old position and the transmitter moves in a random direction, so
// pairs close at up to the 2·maxSpeed the skin is sized for.
func TestGridCandidatesProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const speed = 10.0
	for trial := 0; trial < 40; trial++ {
		sched := sim.NewScheduler()
		par := DefaultParams()
		ch := NewChannel(sched, NewTwoRayGround(par), par)
		ch.SetMaxSpeed(speed)
		n := 5 + rng.Intn(80)
		pos := make([]geom.Point, n)
		for i := range pos {
			pos[i] = geom.Point{X: rng.Float64() * 1500, Y: rng.Float64() * 1500}
			ch.AttachRadio(i, func() geom.Point { return pos[i] }, benchHandler{})
		}
		si := rng.Intn(n)
		src := ch.radios[si]
		for _, powerW := range dialLevels {
			cutoff := ch.ranger.RangeForTxPower(powerW, ch.deliverFloorW) * (1 + 1e-9)
			var nl nbrList
			var row linkRow
			checkRow := func(stage string) {
				t.Helper()
				ch.buildRow(&row, &nl, src, powerW)
				last := int32(-1)
				listed := make(map[int32]bool, len(nl.idx))
				for _, j := range nl.idx {
					if j <= last {
						t.Fatalf("trial %d power %g %s: list not in attach order: %v", trial, powerW, stage, nl.idx)
					}
					last = j
					listed[j] = true
				}
				var linear []linkEntry
				for j, o := range ch.radios {
					if o == src {
						continue
					}
					dist := src.pos().Dist(o.pos())
					if dist <= cutoff && !listed[int32(j)] {
						t.Fatalf("trial %d power %g %s: radio %d at dist %.1f inside cutoff %.1f missing from the list",
							trial, powerW, stage, j, dist, cutoff)
					}
					pr := ch.model.ReceivedPower(powerW, dist)
					if pr < ch.deliverFloorW {
						continue
					}
					linear = append(linear, linkEntry{to: o, prW: pr, delay: sim.DurationOf(dist / SpeedOfLight)})
				}
				if len(row.entries) != len(linear) {
					t.Fatalf("trial %d power %g %s: list row has %d entries, linear %d",
						trial, powerW, stage, len(row.entries), len(linear))
				}
				for i := range row.entries {
					g, l := row.entries[i], linear[i]
					if g.to != l.to || g.prW != l.prW || g.delay != l.delay {
						t.Fatalf("trial %d power %g %s entry %d: list {to=%d pr=%b delay=%d} != linear {to=%d pr=%b delay=%d}",
							trial, powerW, stage, i, g.to.id, g.prW, g.delay, l.to.id, l.prW, l.delay)
					}
				}
			}
			checkRow("at build")
			builtAt := nl.builtAt

			// Any instant up to twice the skin's reach: within it
			// (2·speed·dt <= skin) the list must be reused, past it
			// rebuilt; either way the row must match.
			skin := cutoff * nbrSkinFrac
			dt := rng.Float64() * skin / speed
			advance(sched, dt)
			step := speed * dt
			origin := pos[si]
			for i := range pos {
				if i == si {
					a := rng.Float64() * 2 * math.Pi
					pos[i] = geom.Point{X: pos[i].X + step*math.Cos(a), Y: pos[i].Y + step*math.Sin(a)}
					continue
				}
				d := pos[i].Dist(origin)
				if d == 0 {
					continue
				}
				f := step * rng.Float64() / d
				pos[i] = geom.Point{X: pos[i].X + (origin.X-pos[i].X)*f, Y: pos[i].Y + (origin.Y-pos[i].Y)*f}
			}
			checkRow("after motion")
			if within := 2*speed*dt <= skin; within != (nl.builtAt == builtAt) {
				t.Fatalf("trial %d power %g: list rebuilt=%v %.3f s after build, drift bound within the skin=%v",
					trial, powerW, nl.builtAt != builtAt, dt, within)
			}
		}
	}
}

// recHandler records every delivery with bit-exact powers and times.
type recHandler struct{ log *[]string }

func (h recHandler) RadioRxBegin(tx *Transmission, p float64) {
	*h.log = append(*h.log, fmt.Sprintf("begin tx%d at r%d t=%d p=%b", tx.Seq, tx.From.ID(), 0, p))
}
func (h recHandler) RadioRx(tx *Transmission, p float64, err bool) {
	*h.log = append(*h.log, fmt.Sprintf("rx tx%d p=%b err=%v", tx.Seq, p, err))
}
func (h recHandler) RadioCarrierBusy()         {}
func (h recHandler) RadioCarrierIdle()         {}
func (h recHandler) RadioTxDone(*Transmission) {}

// buildRecorded runs the same 30-radio, three-power transmit schedule
// on a channel configured by setup, returning the full delivery log.
func buildRecorded(t *testing.T, setup func(ch *Channel)) []string {
	t.Helper()
	sched := sim.NewScheduler()
	par := DefaultParams()
	ch := NewChannel(sched, NewTwoRayGround(par), par)
	var log []string
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 30; i++ {
		p := geom.Point{X: rng.Float64() * 1200, Y: rng.Float64() * 1200}
		ch.AttachRadio(i, func() geom.Point { return p }, recHandler{log: &log})
	}
	setup(ch)
	for i, powerW := range []float64{0.2818, 3.45e-3, 30.53e-3, 0.2818, 1e-3} {
		ch.radios[(i*7)%len(ch.radios)].Transmit(powerW, 512*8, 100*sim.Microsecond, nil)
		sched.RunAll()
	}
	return log
}

// TestGridNilEpochMatchesUncached pins the epoch-less fallback: a
// channel with no position-epoch source (unknown mobility) rebuilds the
// shared scratch row per frame, and must deliver byte-for-byte what the
// uncached reference walk delivers — with no motion bound (a fresh
// neighbour list per frame) and with one (lists reused across frames,
// which must stay on each transmitter's own row, not on the scratch
// row the entries go to).
func TestGridNilEpochMatchesUncached(t *testing.T) {
	reference := buildRecorded(t, func(ch *Channel) { ch.SetLinkCache(false) })
	if len(reference) == 0 {
		t.Fatal("no deliveries recorded, the comparison proves nothing")
	}
	for _, speed := range []float64{-1, 0, 3} { // -1: no bound, the default
		t.Run(fmt.Sprintf("maxSpeed=%g", speed), func(t *testing.T) {
			listed := buildRecorded(t, func(ch *Channel) { ch.SetMaxSpeed(speed) }) // nil epoch
			if len(listed) != len(reference) {
				t.Fatalf("listed run logged %d deliveries, reference %d", len(listed), len(reference))
			}
			for i := range listed {
				if listed[i] != reference[i] {
					t.Fatalf("delivery %d diverges:\n  listed    %s\n  reference %s", i, listed[i], reference[i])
				}
			}
		})
	}
}

// rxCountHandler tallies every RadioRx delivery — clean or errored —
// so sensed-but-undecodable frames (row membership at the carrier-sense
// floor) count too.
type rxCountHandler struct{ rxs int }

func (h *rxCountHandler) RadioRxBegin(*Transmission, float64)  {}
func (h *rxCountHandler) RadioRx(*Transmission, float64, bool) { h.rxs++ }
func (h *rxCountHandler) RadioCarrierBusy()                    {}
func (h *rxCountHandler) RadioCarrierIdle()                    {}
func (h *rxCountHandler) RadioTxDone(*Transmission)            {}

// TestGridSkinCoversBoundedMotion pins the Verlet-skin correctness
// argument under the scenario wiring (a position epoch plus a
// SetMaxSpeed bound): while the drift bound stays within the skin the
// neighbour list is NOT rebuilt, yet a radio that moved from outside
// the cutoff to inside it is found, because the list was built out to
// cutoff+skin. Once the bound passes the skin, the next row rebuild
// rebuilds the list too.
func TestGridSkinCoversBoundedMotion(t *testing.T) {
	sched := sim.NewScheduler()
	par := DefaultParams()
	ch := NewChannel(sched, NewTwoRayGround(par), par)
	ch.SetMaxSpeed(10)
	epoch := uint64(0)
	ch.SetPositionEpoch(func() uint64 { return epoch })

	const powerW = 0.2818
	cutoff := ch.ranger.RangeForTxPower(powerW, ch.deliverFloorW)
	skin := cutoff * nbrSkinFrac
	a := ch.AttachRadio(0, func() geom.Point { return geom.Point{} }, &rxCountHandler{})
	posB := geom.Point{X: cutoff + 5} // just out of sensing range
	hb := &rxCountHandler{}
	ch.AttachRadio(1, func() geom.Point { return posB }, hb)
	posC := geom.Point{X: -(cutoff + skin + 5)} // beyond the list's reach
	ch.AttachRadio(2, func() geom.Point { return posC }, &rxCountHandler{})

	a.Transmit(powerW, 1024, 100*sim.Microsecond, nil)
	sched.RunAll()
	if hb.rxs != 0 {
		t.Fatalf("out-of-range radio heard %d deliveries, want 0", hb.rxs)
	}
	row, _ := a.rowFor(powerW)
	builtAt := row.nbrs.builtAt
	if got := fmt.Sprint(row.nbrs.idx); got != "[1]" {
		t.Fatalf("list after build = %s, want [1]", got)
	}

	// 2 s at 10 m/s: pairs close by at most 40 m, inside the skin, so
	// the list must NOT be rebuilt. b moves 20 m into range.
	if 2*10*2.0 > skin {
		t.Fatalf("test needs a 40 m bound <= skin %.1f", skin)
	}
	advance(sched, 2)
	posB = geom.Point{X: cutoff - 15}
	epoch++
	a.Transmit(powerW, 1024, 100*sim.Microsecond, nil)
	sched.RunAll()
	if hb.rxs != 1 {
		t.Fatalf("moved-into-range radio heard %d deliveries, want 1", hb.rxs)
	}
	row, _ = a.rowFor(powerW)
	if row.nbrs.builtAt != builtAt {
		t.Fatal("list rebuilt although the drift bound was within the skin")
	}

	// 2 s more: the bound reaches 80 m, past the skin. c has closed
	// 40 m and now lies within cutoff+skin, so the rebuilt list holds it.
	advance(sched, 2)
	posC = geom.Point{X: -(cutoff + skin - 35)}
	epoch++
	a.Transmit(powerW, 1024, 100*sim.Microsecond, nil)
	sched.RunAll()
	row, _ = a.rowFor(powerW)
	if row.nbrs.builtAt <= builtAt {
		t.Fatal("list not rebuilt after the drift bound passed the skin")
	}
	if got := fmt.Sprint(row.nbrs.idx); got != "[1 2]" {
		t.Fatalf("list after rebuild = %s, want [1 2]", got)
	}
	if hb.rxs != 2 {
		t.Fatalf("in-range radio heard %d deliveries, want 2", hb.rxs)
	}
}
