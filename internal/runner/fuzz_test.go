package runner

import (
	"encoding/json"
	"slices"
	"testing"
)

// runKeys lists the run keys of a campaign's expansion in order.
func runKeys(runs []Run) []string {
	keys := make([]string, len(runs))
	for i, r := range runs {
		keys[i] = r.Key
	}
	return keys
}

// FuzzParseCampaignFile drives arbitrary bytes down the spec path that
// POST /campaigns and campaign -spec share: ParseCampaignFile, then
// Campaign, then Runs must never panic, and a spec that expands must
// round-trip through File and the JSON encoding to the same run keys.
// Plain go test runs only the seeds: every preset and the docs/api.md
// example.
func FuzzParseCampaignFile(f *testing.F) {
	for _, name := range PresetNames() {
		c, err := Preset(name, 10, 2, nil)
		if err != nil {
			f.Fatal(err)
		}
		b, err := json.Marshal(c.File())
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add(docsExampleSpec(f))

	f.Fuzz(func(t *testing.T, spec []byte) {
		cf, err := ParseCampaignFile(spec)
		if err != nil {
			return
		}
		c, err := cf.Campaign()
		if err != nil {
			return
		}
		runs, err := c.Runs()
		if err != nil {
			return
		}
		b, err := json.Marshal(c.File())
		if err != nil {
			t.Fatalf("accepted spec does not re-encode: %v", err)
		}
		cf2, err := ParseCampaignFile(b)
		if err != nil {
			t.Fatalf("re-encoded spec rejected: %v\n%s", err, b)
		}
		c2, err := cf2.Campaign()
		if err != nil {
			t.Fatalf("re-encoded spec does not convert: %v\n%s", err, b)
		}
		runs2, err := c2.Runs()
		if err != nil {
			t.Fatalf("re-encoded spec does not expand: %v\n%s", err, b)
		}
		if !slices.Equal(runKeys(runs), runKeys(runs2)) {
			t.Fatalf("run keys changed across the File round trip:\n  before %v\n  after  %v", runKeys(runs), runKeys(runs2))
		}
	})
}
