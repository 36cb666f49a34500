package corpus

import (
	"embed"
	"fmt"
	"sync"
)

//go:embed data/*.v
var dataFS embed.FS

// manifest lists the corpus files in dependency order with their paper
// categories (Table 1).
var manifest = []struct {
	Name     string
	Category Category
}{
	{"Prelude", Utilities},
	{"NatArith", Utilities},
	{"BoolUtils", Utilities},
	{"ListUtils", Utilities},
	{"Mem", CHL},
	{"Pred", CHL},
	{"Hoare", CHL},
	{"Log", FileSystem},
	{"GroupLog", FileSystem},
	{"Cache", FileSystem},
	{"Balloc", FileSystem},
	{"Inode", FileSystem},
	{"Dir", FileSystem},
	{"DirTree", FileSystem},
}

// Sources returns the embedded corpus files in dependency order.
func Sources() ([]SourceFile, error) {
	out := make([]SourceFile, 0, len(manifest))
	for _, m := range manifest {
		b, err := dataFS.ReadFile("data/" + m.Name + ".v")
		if err != nil {
			return nil, fmt.Errorf("corpus: missing embedded file %s.v: %w", m.Name, err)
		}
		out = append(out, SourceFile{Name: m.Name, Category: m.Category, Src: string(b)})
	}
	return out, nil
}

var (
	loadOnce   sync.Once
	loadResult *Corpus
	loadErr    error
)

// Default loads the embedded corpus once per process (proofs checked) and
// memoizes the result. The returned corpus is shared: treat it as read-only.
func Default() (*Corpus, error) {
	loadOnce.Do(func() {
		files, err := Sources()
		if err != nil {
			loadErr = err
			return
		}
		loadResult, loadErr = Load(files)
	})
	return loadResult, loadErr
}
