package commuter_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// importsOf parses the non-test Go files of dir and calls visit with each
// file and each repro/internal/... path it imports.
func importsOf(t *testing.T, dir string, visit func(file, path string)) {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil || len(files) == 0 {
		t.Fatalf("%s: no Go files (%v)", dir, err)
	}
	for _, file := range files {
		if strings.HasSuffix(file, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), file, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			if path, _ := strconv.Unquote(imp.Path.Value); strings.HasPrefix(path, "repro/internal/") {
				visit(file, path)
			}
		}
	}
}

// TestProgramsImportOnlyTheFacade pins that package commuter is the one
// public surface: the CLI and the pipeline examples are written against it
// alone, so anything they need and cannot reach is a gap in the façade,
// not a reason to reach around it. scalebench prints Figure 7, which runs
// on the coherence simulator and not the pipeline: internal/eval is the one
// package it imports.
func TestProgramsImportOnlyTheFacade(t *testing.T) {
	for _, dir := range []string{"../cmd/commuter", "../examples/remote_sweep", "../examples/renamecommute"} {
		importsOf(t, dir, func(file, path string) {
			t.Errorf("%s imports %s; programs reach the pipeline through repro/commuter only", file, path)
		})
	}
	importsOf(t, "../cmd/scalebench", func(file, path string) {
		if path != "repro/internal/eval" {
			t.Errorf("%s imports %s; scalebench renders Figure 7 through internal/eval only", file, path)
		}
	})
}

// TestEvalIsFigure7Only pins the split of the evaluation: internal/eval is
// the coherence-simulator curves and knows nothing of the pipeline (the
// Figure 6 matrices are this package's), and the §3 formalism, which has
// one user, stays beside it in examples/quickstart: neither a façade over
// it nor an internal package of it comes back.
func TestEvalIsFigure7Only(t *testing.T) {
	importsOf(t, "../internal/eval", func(file, path string) {
		switch path {
		case "repro/internal/sweep", "repro/internal/spec", "repro/internal/model":
			t.Errorf("%s imports %s; eval is the Figure 7 reproduction", file, path)
		}
	})
	for _, dir := range []string{"../scalerule", "../internal/history"} {
		if _, err := os.Stat(dir); err == nil {
			t.Errorf("directory %s exists again; the §3 formalism lives in examples/quickstart, its one user", dir)
		}
	}
}

// TestOneOutboundRequestSite pins that everything this repository sends a
// `commuter serve` instance goes through internal/transport: non-test code
// outside bench/ builds an HTTP request in exactly one place.
func TestOneOutboundRequestSite(t *testing.T) {
	var sites []string
	err := filepath.WalkDir("..", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "../bench" || (path != ".." && strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "http" && strings.HasPrefix(sel.Sel.Name, "NewRequest") {
					sites = append(sites, fset.Position(sel.Pos()).String())
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(sites) != 1 || !strings.HasPrefix(sites[0], "../internal/transport/") {
		t.Errorf("outbound request sites = %v, want exactly one, in internal/transport", sites)
	}
}
