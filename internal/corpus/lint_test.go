package corpus

import (
	"testing"

	"llmfscq/internal/analysis"
)

// TestEmbeddedCorpusLintClean runs every corpus-family static analyzer over
// the embedded development and requires zero findings: no alpha-equivalent
// duplicate statements, no named-but-unused intros hypotheses, no
// no-progress combinators, and an import closure that covers every
// cross-file reference. It is the corpus family's only driver, beside
// internal/analysis's TestRepoLintClean for the Go family.
func TestEmbeddedCorpusLintClean(t *testing.T) {
	files, err := Sources()
	if err != nil {
		t.Fatal(err)
	}
	vfiles := make([]analysis.VFile, 0, len(files))
	for _, f := range files {
		vfiles = append(vfiles, analysis.VFile{
			Name:   "internal/corpus/data/" + f.Name + ".v",
			Module: f.Name,
			Src:    f.Src,
		})
	}
	dev, err := analysis.ParseDevelopment(vfiles)
	if err != nil {
		t.Fatal(err)
	}
	if len(dev.Lemmas) == 0 {
		t.Fatal("development model saw no lemmas; the lint would be vacuous")
	}
	for _, lem := range dev.Lemmas {
		if lem.ScriptErr != nil {
			t.Errorf("%s: proof script failed to parse: %v", lem.Name, lem.ScriptErr)
		}
	}
	for _, f := range analysis.RunCorpus(analysis.All(), dev) {
		t.Errorf("corpus lint: %s", f)
	}
}
