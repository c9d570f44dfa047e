package commuter_test

import (
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestProgramsImportOnlyTheFacade pins that package commuter is the one
// public surface: the CLIs and the remote example are written against it
// alone, so anything they need and cannot reach is a gap in the façade,
// not a reason to reach around it.
func TestProgramsImportOnlyTheFacade(t *testing.T) {
	for _, dir := range []string{"../cmd/commuter", "../cmd/scalebench", "../examples/remote_sweep"} {
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
					t.Errorf("%s imports %s; programs reach the pipeline through repro/commuter only", file, path)
				}
			}
		}
	}
}
