package commuter_test

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/commuter"
)

var updateAnalyze = flag.Bool("update", false, "rewrite testdata/analyze_*.golden")

// TestAnalyzeGolden pins everything `commuter analyze [-v]` prints: the
// whole Analysis — counts, clauses, and every path's rendered condition
// with its commutes / can_diverge / unknown flags — of seven pairs across
// the four specs, in-process and through the wire. The files were written
// by the commit before the order-dependence verdict moved out of ANALYZE.
func TestAnalyzeGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("analyses rename,rename and open,open")
	}
	ctx := context.Background()
	remote, _ := newLoopback(t)
	for _, tc := range []struct{ spec, a, b string }{
		{"posix", "rename", "rename"},
		{"posix", "open", "open"},
		{"posix", "pipe", "read"},
		{"posix", "lseek", "lseek"},
		{"kv", "put", "scan"},
		{"vm", "mmap", "mmap"},
		{"queue", "send", "recv"},
	} {
		file := filepath.Join("testdata", "analyze_"+tc.spec+"_"+tc.a+"_"+tc.b+".golden")
		for _, side := range []struct {
			name string
			cli  commuter.Client
		}{{"local", commuter.Local()}, {"remote", remote}} {
			an, err := side.cli.Analyze(ctx, tc.a, tc.b, commuter.WithSpec(tc.spec))
			if err != nil {
				t.Fatalf("%s %s: %v", side.name, file, err)
			}
			got, err := json.MarshalIndent(an, "", " ")
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, '\n')
			if *updateAnalyze {
				if err := os.WriteFile(file, got, 0o644); err != nil {
					t.Fatal(err)
				}
				continue
			}
			want, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s analysis differs from %s:\n%s", side.name, file, got)
			}
		}
	}
}
