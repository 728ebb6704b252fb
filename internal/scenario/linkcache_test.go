package scenario

import (
	"reflect"
	"testing"

	"repro/internal/mac"
	"repro/internal/sim"
)

// linkCacheOpts is a deliberately mobile, short scenario: nodes are in
// flight for most of the run, so the position epoch advances constantly
// and the link rows are rebuilt at nearly every frame — the worst case
// for invalidation bugs.
func linkCacheOpts(shadowSigma float64) Options {
	return Options{
		Nodes:            20,
		FieldW:           600,
		FieldH:           600,
		SpeedMin:         20, // fast movement: positions change every instant
		SpeedMax:         20,
		Pause:            sim.Second / 2,
		Flows:            5,
		OfferedLoadKbps:  200,
		Duration:         3 * sim.Second,
		Warmup:           sim.Duration(sim.Second / 2),
		Seed:             7,
		ShadowingSigmaDB: shadowSigma,
	}
}

// fastOpts is a 20 m/s paper-field run: cell assignments drift through
// the spatial index's Verlet skin and reassign repeatedly.
func fastOpts(scheme mac.Scheme, nodes int, shadowSigma float64) Options {
	return Options{
		Scheme:           scheme,
		Nodes:            nodes,
		SpeedMin:         20,
		SpeedMax:         20,
		OfferedLoadKbps:  300,
		Duration:         2 * sim.Second,
		Warmup:           sim.Duration(sim.Second / 2),
		Seed:             11,
		ShadowingSigmaDB: shadowSigma,
	}
}

// skinOpts outruns the spatial index's Verlet skin: at 40 m/s over 6 s
// the drift bound exceeds the skin several times, so cells are
// reassigned mid-run and rows are built from a drift-inflated disk. The
// short rows above never leave their first cell assignment.
func skinOpts(shadowSigma float64) Options {
	o := fastOpts(mac.PCMAC, 40, shadowSigma)
	o.SpeedMin, o.SpeedMax = 40, 40
	o.Duration = 6 * sim.Second
	return o
}

// requireReference is the soundness proof the production delivery path
// rests on: the run must produce a Result equal in every field to the
// same run on the reference walk (SetLinkCache(false): every radio
// through the full propagation model, per frame, no link rows and no
// spatial index). A stale row — a position change the epoch counter
// missed — or a stale grid cell the drift bound failed to cover shows up
// as a diverging delivery; under fading, the cached path must also
// consume the fade generator in exactly the reference order.
func requireReference(t *testing.T, o Options) {
	t.Helper()
	prod, err := Build(o)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Build(o)
	if err != nil {
		t.Fatal(err)
	}
	ref.DataCh.SetLinkCache(false)
	if ref.CtrlCh != nil {
		ref.CtrlCh.SetLinkCache(false)
	}
	got, want := prod.Run(), ref.Run()
	if got.Events == 0 || got.MAC.Delivered == 0 {
		t.Fatal("run delivered nothing, the comparison proves nothing")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("production result differs from the reference walk:\n  production %+v\n  reference  %+v", got, want)
	}
}

// TestLinkCacheSoundMobile: nodes in constant flight rebuild the link
// rows at nearly every frame — the worst case for invalidation bugs.
func TestLinkCacheSoundMobile(t *testing.T) {
	requireReference(t, linkCacheOpts(0))
}

// TestLinkCacheSoundShadowing adds log-normal fading: one fade draw per
// attached radio per frame, in the reference walk's order.
func TestLinkCacheSoundShadowing(t *testing.T) {
	requireReference(t, linkCacheOpts(4.0))
}

// TestSpatialGridSoundMobile drives the grid through mid-run cell
// reassignment and drift-inflated enumeration (skinOpts).
func TestSpatialGridSoundMobile(t *testing.T) {
	requireReference(t, skinOpts(0))
}

// TestSpatialGridSoundFading pins the fading branch on the same
// geometry: shadowing removes the delivery cutoff, so rows are built
// without the grid and every radio draws its fade in attach order.
func TestSpatialGridSoundFading(t *testing.T) {
	requireReference(t, skinOpts(4.0))
}

// TestLinkCacheSound runs requireReference over the remaining
// geometries: pinned placements whose rows are built once and reused,
// and 20 m/s paper-field runs for both schemes.
func TestLinkCacheSound(t *testing.T) {
	clusters := linkCacheOpts(0)
	clusters.Topology = TopologyClusters // pinned hotspot placement, dense cells
	fig1 := Fig1Options(mac.PCMAC)       // paper's static two-pair topology: rows built once
	fig1.Duration = 2 * sim.Second
	fig1.Warmup = sim.Duration(sim.Second / 2) // keep a window inside the shortened horizon

	cases := []struct {
		name string
		o    Options
	}{
		{"clusters", clusters},
		{"fig1", fig1},
		{"basic-40-node", fastOpts(mac.Basic, 40, 0)},
		{"pcmac-40-node", fastOpts(mac.PCMAC, 40, 0)},
		{"pcmac-30-node-fading", fastOpts(mac.PCMAC, 30, 4.0)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { requireReference(t, tc.o) })
	}
}
