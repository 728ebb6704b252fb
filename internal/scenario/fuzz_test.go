package scenario

import (
	"encoding/json"
	"math"
	"testing"

	"repro/internal/mac"
)

// FuzzFileConfig drives arbitrary bytes down the scenario-file path
// that LoadConfig (pcmacsim -config, topo -config) takes: json.Unmarshal
// into a FileConfig, then Options, which validates. Neither may panic,
// and an accepted config's Options must pass Validate again. Plain go test
// runs only the seeds: the defaulted options, each topology, and the
// scale geometry at n=500 and n=2000.
func FuzzFileConfig(f *testing.F) {
	add := func(o Options) {
		b, err := json.Marshal(ToFileConfig(o))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	add(Options{}.withDefaults())
	for _, topo := range Topologies() {
		add(Options{Topology: topo})
	}
	for _, n := range []int{500, 2000} {
		side := 1000 * math.Sqrt(float64(n)/50)
		add(Options{Scheme: mac.Basic, Nodes: n, FieldW: side, FieldH: side, Flows: n / 5})
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		var fc FileConfig
		if err := json.Unmarshal(data, &fc); err != nil {
			return
		}
		o, err := fc.Options()
		if err != nil {
			return
		}
		if err := Validate(o); err != nil {
			t.Fatalf("Options accepted a config Validate rejects: %v\n%s", err, data)
		}
	})
}
