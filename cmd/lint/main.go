// Command lint runs the repository's static analyzers (internal/analysis)
// over the Go sources and the embedded proof corpus.
//
// Usage:
//
//	go run ./cmd/lint [flags] [packages]
//
// With no package arguments (or the literal "./...") every Go package under
// the current module is analyzed, plus the embedded corpus. Exits nonzero
// when any finding survives suppression.
//
// Three analyzer families share the run: the cheap AST tier ("go"), the
// go/types tier ("typed": kernel-node mutation, atomic/plain mixing,
// dropped wire and store errors), and the proof-corpus tier ("corpus").
// The module sources are parsed exactly once and shared by the go and typed
// tiers; type-checking happens only when a typed analyzer is selected.
//
// Flags:
//
//	-json                emit findings as a JSON array (family included)
//	-enable  a,b         run only the named analyzers
//	-disable a,b         skip the named analyzers
//	-family  go,typed    run only the named families (go|typed|corpus)
//	-list                print the analyzer inventory and exit
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"llmfscq/internal/analysis"
	"llmfscq/internal/corpus"
)

func main() {
	var (
		jsonOut  = flag.Bool("json", false, "emit findings as JSON")
		enable   = flag.String("enable", "", "comma-separated analyzers to run (default: all)")
		disable  = flag.String("disable", "", "comma-separated analyzers to skip")
		family   = flag.String("family", "", "comma-separated analyzer families to run: go, typed, corpus (default: all)")
		listOnly = flag.Bool("list", false, "print the analyzer inventory and exit")
	)
	flag.Parse()

	if *listOnly {
		for _, a := range analysis.All() {
			fmt.Printf("%-14s (%s) %s\n", a.Name, a.Family(), a.Doc)
		}
		return
	}

	azs, err := analysis.Select(*enable, *disable)
	if err != nil {
		fatal(err)
	}
	families, err := familySet(*family)
	if err != nil {
		fatal(err)
	}
	var selected []*analysis.Analyzer
	for _, a := range azs {
		if families[a.Family()] {
			selected = append(selected, a)
		}
	}

	root, err := moduleRoot()
	if err != nil {
		fatal(err)
	}

	// One parse serves every family: the module loader wraps the same
	// GoPackage values (ASTs + suppressions) the AST tier runs over, and
	// attaches type information only if a typed analyzer actually runs.
	mod, err := analysis.LoadModule(root)
	if err != nil {
		fatal(err)
	}
	dirs, all, err := targetDirs(mod, flag.Args())
	if err != nil {
		fatal(err)
	}

	var findings []analysis.Finding
	if hasFamily(selected, "go") {
		for _, dir := range dirs {
			pkg, ok := mod.Package(dir)
			if !ok {
				fatal(fmt.Errorf("not a package directory: %s", dir))
			}
			findings = append(findings, analysis.RunGo(selected, pkg.GoPackage)...)
		}
	}

	if hasFamily(selected, "typed") {
		// The typed tier always type-checks the whole module (imports
		// resolve across it); with explicit package args, findings are
		// restricted to the requested directories afterwards.
		typed := analysis.RunTyped(selected, mod)
		if !all {
			typed = inDirs(typed, dirs)
		}
		findings = append(findings, typed...)
	}

	if hasFamily(selected, "corpus") {
		dev, err := loadCorpusDevelopment()
		if err != nil {
			fatal(err)
		}
		findings = append(findings, analysis.RunCorpus(selected, dev)...)
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if findings == nil {
			findings = []analysis.Finding{}
		}
		if err := enc.Encode(findings); err != nil {
			fatal(err)
		}
	} else {
		for _, f := range findings {
			fmt.Println(f)
		}
	}
	if len(findings) > 0 {
		if !*jsonOut {
			fmt.Fprintf(os.Stderr, "lint: %d finding(s)\n", len(findings))
		}
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "lint:", err)
	os.Exit(2)
}

// familySet parses the -family flag into a set; empty means every family.
func familySet(arg string) (map[string]bool, error) {
	out := map[string]bool{}
	if strings.TrimSpace(arg) == "" {
		for _, f := range analysis.Families {
			out[f] = true
		}
		return out, nil
	}
	for _, f := range strings.Split(arg, ",") {
		f = strings.TrimSpace(f)
		known := false
		for _, k := range analysis.Families {
			if f == k {
				known = true
			}
		}
		if !known {
			return nil, fmt.Errorf("unknown analyzer family %q (want go, typed, or corpus)", f)
		}
		out[f] = true
	}
	return out, nil
}

func hasFamily(azs []*analysis.Analyzer, family string) bool {
	for _, a := range azs {
		if a.Family() == family {
			return true
		}
	}
	return false
}

// inDirs keeps findings whose file lives under one of the dirs.
func inDirs(fs []analysis.Finding, dirs []string) []analysis.Finding {
	var out []analysis.Finding
	for _, f := range fs {
		for _, dir := range dirs {
			if strings.HasPrefix(f.File, dir+"/") || (dir == "." && !strings.Contains(f.File, "/")) {
				out = append(out, f)
				break
			}
		}
	}
	return out
}

// loadCorpusDevelopment parses the embedded corpus into the analysis model.
func loadCorpusDevelopment() (*analysis.Development, error) {
	files, err := corpus.Sources()
	if err != nil {
		return nil, err
	}
	vfiles := make([]analysis.VFile, 0, len(files))
	for _, f := range files {
		vfiles = append(vfiles, analysis.VFile{
			Name:   "internal/corpus/data/" + f.Name + ".v",
			Module: f.Name,
			Src:    f.Src,
		})
	}
	return analysis.ParseDevelopment(vfiles)
}

// moduleRoot walks up from the working directory to the directory holding
// go.mod.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above the working directory")
		}
		dir = parent
	}
}

// targetDirs resolves the package arguments to module-root-relative slash
// paths of directories containing Go files. No args or "./..." means the
// whole module (all=true).
func targetDirs(mod *analysis.Module, args []string) (dirs []string, all bool, err error) {
	all = len(args) == 0
	for _, a := range args {
		if a == "./..." {
			all = true
		}
	}
	if all {
		for _, p := range mod.Pkgs {
			dirs = append(dirs, p.Dir)
		}
		return dirs, true, nil
	}
	for _, a := range args {
		rel := strings.TrimPrefix(filepath.ToSlash(filepath.Clean(a)), "./")
		if _, ok := mod.Package(rel); !ok {
			return nil, false, fmt.Errorf("not a package directory: %s", a)
		}
		dirs = append(dirs, rel)
	}
	sort.Strings(dirs)
	return dirs, false, nil
}
