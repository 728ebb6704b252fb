package scenario

import (
	"reflect"
	"testing"
)

// TestSimStatsSound is the sink-invariance proof the telemetry layer
// rests on (mirror of TestLinkCacheSound): a run with the scheduler's
// depth tracking attached must be bit-identical — events, RNG streams,
// every metric — to the same run without it. The only permitted
// difference is the new PeakQueue observation itself.
func TestSimStatsSound(t *testing.T) {
	cases := []struct {
		name string
		opts Options
	}{
		{"mobile", linkCacheOpts(0)},
		{"fading", linkCacheOpts(6)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			plain, err := Run(c.opts)
			if err != nil {
				t.Fatal(err)
			}
			o := c.opts
			o.CollectSimStats = true
			observed, err := Run(o)
			if err != nil {
				t.Fatal(err)
			}
			if plain.Events == 0 {
				t.Fatal("empty run proves nothing")
			}
			if plain.PeakQueue != 0 {
				t.Errorf("PeakQueue = %d without the sink, want 0", plain.PeakQueue)
			}
			if observed.PeakQueue <= 0 {
				t.Errorf("PeakQueue = %d with the sink, want > 0", observed.PeakQueue)
			}
			// Sanity: a 20-node run keeps far more than one event in
			// flight; a peak of 1 would mean the hook is misplaced.
			if observed.PeakQueue < 10 {
				t.Errorf("PeakQueue = %d, implausibly shallow for %d nodes", observed.PeakQueue, observed.Opts.Nodes)
			}
			// Apart from the observation and the option echo, the two
			// results must agree in every field.
			observed.PeakQueue = 0
			observed.Opts.CollectSimStats = false
			if !reflect.DeepEqual(plain, observed) {
				t.Errorf("results diverge with the sink attached:\n  plain    %+v\n  observed %+v", plain, observed)
			}
		})
	}
}

// TestSimStatsDeterministic: the peak depth itself is a deterministic
// function of the run — same seed, same trace, same peak — so it is
// safe to emit into checkpointed JSONL.
func TestSimStatsDeterministic(t *testing.T) {
	o := linkCacheOpts(0)
	o.CollectSimStats = true
	a, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if a.PeakQueue != b.PeakQueue {
		t.Errorf("PeakQueue %d != %d across identical runs", a.PeakQueue, b.PeakQueue)
	}
}
