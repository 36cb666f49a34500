package bench

import (
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestSweepbenchVetAndTest runs `go vet ./...` and `go test ./...` inside
// sweepbench/, the benchmark harness. It is its own module, so the root
// `go test ./...` never compiles it: without this test a change to an API
// it names (checker.Step, core.Config, ...) would pass here and fail only
// when the benchmark runs.
func TestSweepbenchVetAndTest(t *testing.T) {
	goCmd, err := exec.LookPath("go")
	if err != nil {
		t.Fatalf("no go command to build sweepbench/ with: %v", err)
	}
	// The test cache records only the files this process reads, not those
	// the child go commands read, and an edit that leaves this test binary
	// unchanged, such as deleting an exported name nothing linked here
	// uses, would replay a cached pass. Reading every file of the module
	// (hidden directories aside) makes any edit rerun the test.
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && path != "." && strings.HasPrefix(d.Name(), "."):
			return filepath.SkipDir
		case d.IsDir():
			return nil
		}
		_, err = os.ReadFile(path)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{{"vet", "./..."}, {"test", "./..."}} {
		cmd := exec.Command(goCmd, args...)
		cmd.Dir = "sweepbench"
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Errorf("go %s in sweepbench/: %v\n%s", strings.Join(args, " "), err, out)
		}
	}
}
