package tuned

import (
	"encoding/json"
	"testing"
	"time"
)

// FuzzTunedTableLoad holds the loader's failure posture: arbitrary
// bytes — corrupt, truncated, version-skewed, adversarial — must never
// panic, and any table the loader does accept must be internally
// consistent (checksum genuinely matches, semantic validation passes,
// picks are deterministic). A load failure is the degrade-to-race
// signal; a wrong accept would silently misschedule every request in a
// class, which is why the accept path is re-verified here.
func FuzzTunedTableLoad(f *testing.F) {
	// Seed with a sealed valid table and the interesting breakages.
	valid := sampleTable()
	if err := valid.Seal(time.Time{}); err != nil {
		f.Fatal(err)
	}
	raw, err := json.MarshalIndent(valid, "", "\t")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(raw)
	f.Add(raw[:len(raw)/2])                        // truncated
	f.Add([]byte(`{}`))                            // empty object
	f.Add([]byte(`{"version":99,"checksum":"x"}`)) // version skew
	f.Add([]byte(`{"version":1,"checksum":"deadbeef","entries":{"k":{"ranked":[{"backend":"enum"}],"stagger_ms":1}}}`))
	f.Add([]byte(`not json at all`))
	f.Add([]byte(`{"version":1,"checksum":"","entries":null}`))
	f.Add([]byte(`{"version":1,"entries":{"k":{"ranked":[],"stagger_ms":-5}}}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		tab, err := Parse(data)
		if err != nil {
			if tab != nil {
				t.Fatal("Parse returned both a table and an error")
			}
			return // rejected input: the caller degrades to race-everything
		}
		// Accepted: the table must actually be trustworthy.
		if tab.Version != FormatVersion {
			t.Fatalf("accepted version %d", tab.Version)
		}
		sum, err := tab.checksum()
		if err != nil {
			t.Fatalf("rehash accepted table: %v", err)
		}
		if sum != tab.Checksum {
			t.Fatalf("accepted table with checksum mismatch: recorded %s, computed %s", tab.Checksum, sum)
		}
		if err := tab.validate(); err != nil {
			t.Fatalf("accepted invalid table: %v", err)
		}
		// Picks are deterministic and never fabricate entries.
		for key, plan := range tab.Entries {
			if len(plan.Ranked) == 0 {
				t.Fatalf("accepted empty ranking under %q", key)
			}
			if plan.Stagger() < 0 {
				t.Fatalf("accepted negative stagger under %q", key)
			}
		}
	})
}
