package testgen

import (
	"context"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/analyzer"
	"repro/internal/kernel"
	_ "repro/internal/kvspec"
	_ "repro/internal/queuespec"
	"repro/internal/spec"
	_ "repro/internal/vmspec"
)

var updateCorpus = flag.Bool("update", false, "rewrite testdata/corpus.digest")

// TestCorpusDigest pins the content of every generated test, not just the
// cell counts the matrix goldens see: one line per spec universe with the
// test count and a SHA-256 over each test's ID, both calls and setup
// fingerprint, for every pair of all four specs plus posix "fs" under the
// lowest-FD rule. A refactor of the symbolic core or of TESTGEN must leave
// the file untouched; regenerate with -update only when a change of test
// content is the point. Every test of the walk must also pass the
// Replayer's admission: what it refuses, TESTGEN must never produce.
func TestCorpusDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("full ANALYZE+TESTGEN of every spec")
	}
	type universe struct {
		spec, set string
		cfg       spec.Config
	}
	universes := []universe{
		{"kv", "all", spec.Config{}},
		{"posix", "all", spec.Config{}},
		{"posix", "fs", spec.Config{LowestFD: true}},
		{"queue", "all", spec.Config{}},
		{"vm", "all", spec.Config{}},
	}
	var got strings.Builder
	for _, u := range universes {
		sp, err := spec.Lookup(u.spec)
		if err != nil {
			t.Fatal(err)
		}
		ops, err := spec.OpSet(sp, u.set)
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		n := 0
		for i, a := range ops {
			for _, b := range ops[:i+1] {
				// Earlier op first: the orientation sweep.Pairs uses.
				pr, err := analyzer.AnalyzePairCtx(context.Background(), sp, b, a, analyzer.Options{Config: u.cfg})
				if err != nil {
					t.Fatal(err)
				}
				tests, _ := GenerateChecked(sp, pr, Options{})
				for _, tc := range tests {
					if err := kernel.Admit(&tc); err != nil {
						t.Errorf("a generated test is not admitted: %v", err)
					}
					if fp := tc.Setup.Fingerprint(); fp != tc.SetupID {
						t.Errorf("%s: SetupID %q is not the setup's fingerprint %q", tc.ID, tc.SetupID, fp)
					}
					fmt.Fprintf(h, "%s\n%v\n%v\n%s\n", tc.ID, tc.Calls[0], tc.Calls[1], tc.SetupID)
					n++
				}
			}
		}
		fmt.Fprintf(&got, "%s/%s lowestfd=%t tests=%d sha256=%x\n", u.spec, u.set, u.cfg.LowestFD, n, h.Sum(nil))
	}
	const path = "testdata/corpus.digest"
	if *updateCorpus {
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("generated test corpus changed:\n got:\n%s\nwant:\n%s", got.String(), want)
	}
}
