package eval

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"

	"llmfscq/internal/core"
)

// oracleDir holds the committed golden files of the paper schedule: the
// rendered tables and the verdict digest of each vetted sampling seed.
const oracleDir = "../../sweepbench/testdata"

// TestExperimentsMatchOracle runs the whole paper schedule at seed 2025
// and holds it to the committed oracle (checkOracle). The outcome tier's
// counts are pinned too: a tier that stopped answering would still print
// the right tables. The other seeds of golden.json are checked outside
// -race (TestExperimentsMatchOracleSeeds).
func TestExperimentsMatchOracle(t *testing.T) {
	r, proved := checkOracle(t, 2025)
	if proved != 875 {
		t.Errorf("%d proved verdicts, want 875", proved)
	}
	const stats = `{"event":"cache-stats","outcomes":{"exact":472,"derived":372,"misses":2016}}`
	if got := r.CacheStatsJSON(); got != stats {
		t.Errorf("outcome tier: %s, want %s", got, stats)
	}
}

// checkOracle runs the whole paper schedule at a sampling seed through the
// worker pool and holds it to the committed oracle: the tables byte for
// byte (tables-seedN.txt), the verdicts by golden.json's digest, and every
// proof by a kernel replay, the way PALM and CoqPilot count a proof. It
// returns the runner and the number of proofs replayed.
func checkOracle(t *testing.T, seed int64) (*Runner, int) {
	t.Helper()
	want, err := os.ReadFile(fmt.Sprintf("%s/tables-seed%d.txt", oracleDir, seed))
	if err != nil {
		t.Fatal(err)
	}
	g, ok := readGolden(t)[strconv.FormatInt(seed, 10)]
	if !ok {
		t.Fatalf("golden.json has no seed %d", seed)
	}

	r, c := runner(t)
	r.Seed = seed
	tables, verdicts := r.Experiments()
	if tables != string(want) {
		got, exp := strings.Split(tables, "\n"), strings.Split(string(want), "\n")
		i := 0
		for i < len(got) && i < len(exp) && got[i] == exp[i] {
			i++
		}
		t.Errorf("tables differ from tables-seed%d.txt at line %d (%d vs %d lines)", seed, i+1, len(got), len(exp))
	}

	h := sha256.New()
	for _, v := range verdicts {
		fmt.Fprintf(h, "%s\t%s\t%s\t%s\t%s\t%d\t%s\n", v.Theorem, v.Model, v.Setting, v.Variant, v.Status, v.Queries, v.Proof)
	}
	if digest := hex.EncodeToString(h.Sum(nil)); len(verdicts) != g.Units || digest != g.Digest {
		t.Errorf("verdicts: %d units, digest %s; golden.json: %d units, digest %s", len(verdicts), digest, g.Units, g.Digest)
	}

	proved := 0
	for _, v := range verdicts {
		if v.Status != core.Proved {
			continue
		}
		proved++
		th, ok := c.TheoremNamed(v.Theorem)
		if !ok {
			t.Errorf("verdict names unknown theorem %s", v.Theorem)
			continue
		}
		if err := replayCheck(r.RestrictEnv(th), th, v.Proof); err != nil {
			t.Errorf("%s (%s, %s, %s): proof does not replay: %v", v.Theorem, v.Model, v.Setting, v.Variant, err)
		}
	}
	return r, proved
}

// golden is one seed's entry in golden.json.
type golden struct {
	Digest string `json:"digest"`
	Units  int    `json:"units"`
}

// readGolden reads golden.json, keyed by sampling seed.
func readGolden(t *testing.T) map[string]golden {
	t.Helper()
	raw, err := os.ReadFile(oracleDir + "/golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var seeds map[string]golden
	if err := json.Unmarshal(raw, &seeds); err != nil {
		t.Fatal(err)
	}
	return seeds
}
