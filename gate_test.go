package bench

import (
	"bytes"
	"go/format"
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
	readModule(t)
	runGo(t, "sweepbench", "vet", "./...")
	runGo(t, "sweepbench", "test", "./...")
}

// TestVetGofmtAndExamples makes tier-1 the one gate for what the compiler
// does not check: `go vet ./...` (a lock copied by value is its copylocks
// check), gofmt's formatting of every Go file of the module, and a run of
// every examples/*/ program, each of which exits nonzero when it fails.
func TestVetGofmtAndExamples(t *testing.T) {
	for _, f := range readModule(t) {
		out, err := format.Source(f.src)
		switch {
		case err != nil:
			t.Errorf("gofmt cannot format %s: %v", f.path, err)
		case !bytes.Equal(out, f.src):
			t.Errorf("gofmt would reformat %s", f.path)
		}
	}
	runGo(t, ".", "vet", "./...")
	examples, err := os.ReadDir("examples")
	if err != nil {
		t.Fatal(err)
	}
	for _, ex := range examples {
		if ex.IsDir() {
			runGo(t, ".", "run", "./examples/"+ex.Name())
		}
	}
}

// goFile is one Go source file of the module.
type goFile struct {
	path string
	src  []byte
}

// readModule reads every file of the module, hidden directories aside, and
// returns its Go files, hidden ones aside, as gofmt lists them. The test
// cache records only the files this process reads, not those the child go
// commands read, and an edit that leaves this test binary unchanged, such
// as deleting an exported name nothing linked here uses, would replay a
// cached pass. Reading every file of the module makes any edit rerun the
// test.
func readModule(t *testing.T) []goFile {
	t.Helper()
	var files []goFile
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		hidden := path != "." && strings.HasPrefix(d.Name(), ".")
		switch {
		case d.IsDir() && hidden:
			return filepath.SkipDir
		case d.IsDir():
			return nil
		}
		src, err := os.ReadFile(path)
		if err == nil && !hidden && strings.HasSuffix(path, ".go") {
			files = append(files, goFile{path, src})
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// runGo runs the go command with args in dir, and fails the test with its
// output if it fails.
func runGo(t *testing.T, dir string, args ...string) {
	t.Helper()
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Errorf("go %s in %s: %v\n%s", strings.Join(args, " "), dir, err, out)
	}
}
