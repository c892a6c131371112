package enum

import (
	"crypto/sha256"
	"fmt"
	"slices"
	"strings"
	"testing"

	"sortsynth/internal/isa"
)

// TestSearchGoldenCounters pins the search effort counters, solution
// counts and kernels of three benchmark specs, plus an unguided
// first-solution search whose last expansion stops mid-candidate-set,
// plus two all-solutions searches started with slack above the optimal
// length, whose bound drops partway through an expansion when the first
// solution turns up, plus two more such searches under the §3.5 cut, and
// the min/max n=5 ConfigBest search of the benchmark. In the
// duplicate-safe min/max n=3 one (k=1) the lowered bound re-masks
// candidates of a parent whose projection count already exceeds the cut
// limit, so the cut and the budget split that parent's candidates.
// The budget mask drops candidates before they are applied and books
// them with popcounts; the cmov4-w1 row was recorded with every
// candidate applied, and the exact-search rows were re-recorded when the
// pair bound came in (DESIGN.md §10), with their lengths, solution
// counts, kernels and digests unchanged. Any drift in what the engine
// generates, prunes, cuts or deduplicates — or in which kernel it
// returns — fails here. The subtest names keep the workers=1 suffix the
// rows were recorded under.
func TestSearchGoldenCounters(t *testing.T) {
	if testing.Short() {
		t.Skip("runs an n=3 enumeration, an n=3 proof and an n=4 synthesis")
	}
	type counters struct{ expanded, generated, deduped, cut, pruned int64 }
	type golden struct {
		name      string
		set       *isa.Set
		opt       Options
		length    int
		solutions int64
		c         counters
		kernel    string
		setDigest string // sha256 prefix of the sorted Programs, one per line
	}
	all3 := ConfigAllSolutions()
	all3.MaxLen = 11
	best4 := ConfigBest()
	best4.MaxLen = 20
	all3Slack := ConfigAllSolutions()
	all3Slack.MaxLen = 13
	mm3Slack := ConfigAllSolutions()
	mm3Slack.MaxLen = 12
	cut3Slack := ConfigAllSolutions()
	cut3Slack.Cut, cut3Slack.CutK, cut3Slack.MaxLen = CutFactor, 2, 13
	cutDup3 := ConfigAllSolutions()
	cutDup3.Cut, cutDup3.CutK, cutDup3.MaxLen, cutDup3.DuplicateSafe = CutFactor, 1, 11, true
	best5 := ConfigBest()
	best5.MaxLen = 23
	first3 := Options{Heuristic: HeurDistMax, UseDistPrune: true, MaxLen: 11}
	cmov3, cmov4, mm3, mm5 := isa.NewCmov(3, 1), isa.NewCmov(4, 1), isa.NewMinMax(3, 1), isa.NewMinMax(5, 1)
	const (
		all3Digest = "8f0bde02c2c402ca"
		all3Order  = "1c8eab419d26eb56"
		all3W1     = "cmp r1 r2; cmovg s1 r2; cmovg r2 r1; cmovg r1 s1; cmp r2 r3; cmovg s1 r3; cmovg r3 r2; cmovg r2 s1; cmp r1 r2; cmovg r2 r1; cmovg r1 s1"
		best4W1    = "cmp r3 r4; mov s1 r3; cmovg r3 r4; cmovg r4 s1; cmp r1 r2; mov s1 r1; cmovg r1 r2; cmovg r2 s1; cmp r2 r4; mov s1 r2; cmovg r2 r4; cmovg r4 s1; cmp r1 r3; mov s1 r1; cmovg r1 r3; cmovg r3 s1; cmp r2 r3; mov s1 r2; cmovg r2 r3; cmovg r3 s1"
		mm3W1      = "mov s1 r1; min r1 r3; max r3 s1; mov s1 r2; min r2 r3; max r3 s1; max r2 r1; min r1 s1"
		mm3DupW1   = "mov s1 r1; min r1 r3; max r3 s1; mov s1 r2; max r2 r1; min r1 s1; min r2 r3; max r3 s1"
		mm5W1      = "mov s1 r1; min r1 r5; max r5 s1; mov s1 r2; min r2 r4; max r4 s1; mov s1 r3; max r3 r2; min r2 s1; max s1 r4; min r4 r3; mov r3 r5; max r5 s1; min s1 r3; min r3 r4; max r4 s1; max r4 r1; min s1 r1; min r1 r2; max r2 s1; mov s1 r2; min r2 r3; max r3 s1"
		first3W1   = "mov s1 r1; cmp r2 s1; cmovl s1 r2; cmovl r2 r1; cmp r2 r3; cmovg r1 r3; cmovg r3 r2; cmp r1 s1; cmovg r2 r1; cmovg r1 s1; cmovl r2 s1"
	)
	cases := []golden{
		{"cmov3-all", cmov3, all3, 11, 5602, counters{15550, 653100, 196686, 0, 440667}, all3W1, all3Digest},
		{"cmov3-proof10", cmov3, ConfigProof(10), -1, 0, counters{2625, 110250, 33698, 0, 73919}, "", ""},
		{"cmov4-w1", cmov4, best4, 20, 1, counters{130702, 3602143, 253447, 2138139, 1078421}, best4W1, ""},
		{"cmov3-distmax-first", cmov3, first3, 11, 1, counters{15302, 642666, 195841, 0, 431272}, first3W1, ""},
		{"cmov3-all-len13", cmov3, all3Slack, 11, 5602, counters{36757, 1543794, 519025, 0, 932297}, all3W1, all3Digest},
		{"minmax3-all-len12", mm3, mm3Slack, 8, 604, counters{272, 9792, 3421, 0, 5848}, mm3W1, "9b601512ec7b91e6"},
		{"cmov3-all-cut2-len13", cmov3, cut3Slack, 11, 5602, counters{529440, 22236480, 1989657, 4242557, 15458491}, all3W1, all3Digest},
		{"minmax3-dupsafe-all-cut1-len11", mm3, cutDup3, 8, 288, counters{532, 19152, 2742, 3182, 12678}, mm3DupW1, "6a1963c25756bee0"},
		{"minmax5-best-len23", mm5, best5, 23, 1, counters{15935, 272769, 25857, 109230, 121383}, mm5W1, ""},
	}
	// orderDigest pins Programs in the order the engine returns them
	// (sha256 prefix, one program per line): that order decides the
	// MaxSolutions truncation and the objective re-rank prefix.
	orderDigest := map[string]string{
		"cmov3-all":                      all3Order,
		"cmov3-all-len13":                all3Order,
		"minmax3-all-len12":              "ab8a09b7f5e69556",
		"cmov3-all-cut2-len13":           all3Order,
		"minmax3-dupsafe-all-cut1-len11": "b0121aea6ed48777",
	}
	// pairPruned pins Result.PairPruned, the share of pruned the pair
	// bound dropped; it is 0 on the rows not listed (ConfigBest's cut
	// and guide keep the pair bound off).
	pairPruned := map[string]int64{
		"cmov3-all":           59053,
		"cmov3-proof10":       11388,
		"cmov3-distmax-first": 58133,
		"cmov3-all-len13":     72270,
		"minmax3-all-len12":   89,
	}
	for _, tc := range cases {
		t.Run(tc.name+"/workers=1", func(t *testing.T) {
			r := Run(tc.set, tc.opt)
			got := counters{r.Expanded, r.Generated, r.Deduped, r.CutCount, r.Pruned}
			if got != tc.c {
				t.Errorf("counters (expanded, generated, deduped, cut, pruned) = %v, want %v", got, tc.c)
			}
			if r.PairPruned != pairPruned[tc.name] {
				t.Errorf("pair-pruned %d, want %d", r.PairPruned, pairPruned[tc.name])
			}
			if r.Length != tc.length || r.SolutionCount != tc.solutions {
				t.Errorf("length %d, %d solutions; want %d, %d", r.Length, r.SolutionCount, tc.length, tc.solutions)
			}
			if k := r.Program.FormatInline(tc.set.N); k != tc.kernel {
				t.Errorf("kernel\n  %s\nwant\n  %s", k, tc.kernel)
			}
			if tc.setDigest != "" {
				lines := make([]string, len(r.Programs))
				for i, p := range r.Programs {
					lines[i] = p.FormatInline(tc.set.N)
				}
				if d := digest(lines); d != orderDigest[tc.name] {
					t.Errorf("program order digest %s, want %s", d, orderDigest[tc.name])
				}
				slices.Sort(lines)
				if d := digest(lines); d != tc.setDigest {
					t.Errorf("program set digest %s, want %s", d, tc.setDigest)
				}
			}
		})
	}
}

// digest returns the first 16 hex digits of the sha256 of lines joined
// by newlines.
func digest(lines []string) string {
	return fmt.Sprintf("%x", sha256.Sum256([]byte(strings.Join(lines, "\n"))))[:16]
}
