//go:build !race

package eval

import (
	"slices"
	"strconv"
	"testing"
)

// TestExperimentsMatchOracleSeeds holds every other seed of golden.json to
// the oracle as TestExperimentsMatchOracle holds seed 2025: tables, digest
// and proof replay (the digest fixes how many proofs there are). It is
// excluded under -race, which runs the one schedule, and costs about 1.5 s
// of CPU a seed.
func TestExperimentsMatchOracleSeeds(t *testing.T) {
	var seeds []int64
	for k := range readGolden(t) {
		seed, err := strconv.ParseInt(k, 10, 64)
		if err != nil {
			t.Fatalf("golden.json seed %q: %v", k, err)
		}
		if seed != 2025 {
			seeds = append(seeds, seed)
		}
	}
	slices.Sort(seeds)
	if len(seeds) == 0 {
		t.Fatal("golden.json holds no seed but 2025")
	}
	for _, seed := range seeds {
		t.Run(strconv.FormatInt(seed, 10), func(t *testing.T) {
			if _, proved := checkOracle(t, seed); proved == 0 {
				t.Error("no proved verdict to replay")
			}
		})
	}
}
