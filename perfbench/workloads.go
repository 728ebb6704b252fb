package main

import (
	"fmt"
	"sort"

	"repro/internal/mac"
	"repro/internal/runner"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// workload is one named input set and how to measure it.
type workload struct {
	// horizonS is the simulated horizon of each run.
	horizonS float64
	// minReps is the fewest passes a run makes, however short
	// --seconds is; at least 2, as a traced run alternates untraced and
	// traced passes.
	minReps int
	// scenarios builds a single-simulation workload's scenario set (nil
	// for the campaign). One pass runs the whole set.
	scenarios func(seed int64, horizonS float64) []scenario.Options
	untraced  func(b *bench, root int) error
	traced    func(b *bench, root int) error
	// digest runs one untimed repetition and returns its output digest.
	digest func(b *bench) (string, error)
}

// warmup is the scenario's 5 s route-establishment warmup, clamped to
// a quarter of short horizons as the campaign presets do.
func warmup(horizonS float64) sim.Duration {
	return sim.DurationOf(min(5, horizonS/4))
}

// The workloads and why each is here:
//
//   - paper50 is the paper's Section IV setup: PCMAC on 50 mobile nodes
//     at an unsaturated 400 kbps. Per-event queue cost and the
//     MAC/control-channel handlers dominate; link rows are short.
//   - scale500-mobile is the scale preset's geometry at n=500 under
//     Basic 802.11: a ~1.7k pending set and link rows rebuilt as nodes
//     cross grid cells, so queue maintenance and phys dominate. It has
//     no control channel.
//   - campaign-bursty is the bursty preset submitted to an in-process
//     daemon, the way users run the system: the only workload through
//     runner and serve, with concurrent simulations and the stochastic
//     traffic sources.
var workloads = map[string]workload{
	"paper50": {
		horizonS:  15,
		minReps:   3,
		scenarios: scenarioSet("paper50", 16, paper50),
		untraced:  simUntraced,
		traced:    simTraced,
		digest:    simDigestOnce,
	},
	"scale500-mobile": {
		horizonS:  4,
		minReps:   2,
		scenarios: scenarioSet("scale500-mobile", 4, scale500),
		untraced:  simUntraced,
		traced:    simTraced,
		digest:    simDigestOnce,
	},
	"campaign-bursty": {
		horizonS: 3,
		minReps:  2,
		untraced: campaignUntraced,
		traced:   campaignTraced,
		digest:   campaignDigestOnce,
	},
}

func paper50(seed int64, h float64) scenario.Options {
	return scenario.Options{
		Scheme:          mac.PCMAC,
		OfferedLoadKbps: 400,
		Duration:        sim.DurationOf(h),
		Warmup:          warmup(h),
		Seed:            seed,
	}
}

func scale500(seed int64, h float64) scenario.Options {
	return scenario.Options{
		Scheme:          mac.Basic, // PCMAC's control frame addresses at most 256 nodes
		Nodes:           500,
		FieldW:          3162, // the paper's density: 1000 m * sqrt(500/50)
		FieldH:          3162,
		Flows:           100,
		OfferedLoadKbps: 250,
		Duration:        sim.DurationOf(h),
		// Traffic starts at 1 s and the route-discovery floods that
		// follow last about two seconds at this size; while they last a
		// second delivers only a handful of packets, sometimes none. A
		// warmup of half the horizon puts the last flood second and one
		// steady second in the measurement window, which then always
		// delivers packets.
		Warmup: sim.DurationOf(h / 2),
		Seed:   seed,
	}
}

// scenarioSet draws k scenarios per benchmark seed, each with its own
// scenario seed derived from the benchmark seed. One scenario's run
// time depends on its random flow pairs and routes (about 15% standard
// deviation between paper50 seeds, 5% for scale500-mobile's 100
// flows); a pass over k of them averages that out, so seeds compare.
func scenarioSet(name string, k int, mk func(seed int64, h float64) scenario.Options) func(int64, float64) []scenario.Options {
	return func(seed int64, h float64) []scenario.Options {
		set := make([]scenario.Options, k)
		for i := range set {
			set[i] = mk(runner.DeriveSeed(seed, fmt.Sprintf("%s/%d", name, i)), h)
		}
		return set
	}
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
