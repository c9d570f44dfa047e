package testgen

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"hash"
	"io"
	"os"
	"strings"
	"testing"

	"repro/internal/analyzer"
	"repro/internal/kernel"
	"repro/internal/kernel/kerneltest"
	_ "repro/internal/kvspec"
	"repro/internal/mtrace"
	_ "repro/internal/queuespec"
	"repro/internal/spec"
	_ "repro/internal/vmspec"
)

// pinDir holds the three digests: internal/pins embeds them and derives
// the sweep cache keys from them.
const pinDir = "../pins/"

var updateCorpus = flag.Bool("update", false, "rewrite the analysis, corpus and trace digests in internal/pins")

// TestCorpusDigest pins every path ANALYZE finds and the content of every
// generated test, not just the cell counts the matrix goldens see, and
// what every implementation does with it. The corpus is generated once:
// every pair of all four specs plus posix "fs" under the lowest-FD rule.
//
// analysis.digest has one line per spec universe with the path
// count and a SHA-256 over each pair's paths in order: index, Commutes,
// Unknown and the renderings of PC and Eq. Every Context and Dict call a
// model makes can decide a path, so a refactor of a spec's model or of the
// symbolic core must leave it untouched.
//
// corpus.digest has one line per spec universe with the test count
// and a SHA-256 over each test's ID, both calls and setup fingerprint. A
// refactor of the symbolic core or of TESTGEN must leave it untouched.
//
// trace.digest has one line per universe and registered Impl with a
// SHA-256 over each test's ID, both results, whether the swapped order
// gives the same results, the conflict report (cell, writers, readers) and
// the ordered access log of the traced run, as kerneltest.Check computes
// them on fresh kernels (no Replayer). It pins
// what `testgen -check` prints and the access order Figure 7's simulator
// replays, so a refactor of a kernel or of internal/scale must leave it
// untouched too.
//
// The three live in internal/pins. Regenerate any of them with -update only
// when changing what it pins is the point; the rewrite re-keys the sweep
// cache entries the moved lines cover. Every test of the walk must also
// pass the Replayer's admission: what it refuses, TESTGEN must never
// produce; and its setup's Clone must encode to the setup's own JSON.
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
	var analysis, corpus, traces strings.Builder
	for _, u := range universes {
		sp, err := spec.Lookup(u.spec)
		if err != nil {
			t.Fatal(err)
		}
		ops, err := spec.OpSet(sp, u.set)
		if err != nil {
			t.Fatal(err)
		}
		impls := sp.Impls()
		h, pathH := sha256.New(), sha256.New()
		traceH := make([]hash.Hash, len(impls))
		for j := range traceH {
			traceH[j] = sha256.New()
		}
		n, paths := 0, 0
		for i, a := range ops {
			for _, b := range ops[:i+1] {
				// Earlier op first: the orientation sweep.Pairs uses.
				pr, err := analyzer.AnalyzePairCtx(context.Background(), sp, b, a, analyzer.Options{Config: u.cfg})
				if err != nil {
					t.Fatal(err)
				}
				for pi, p := range pr.Paths {
					fmt.Fprintf(pathH, "%s,%s %d %t %t\n%s\n%s\n", pr.OpA, pr.OpB, pi, p.Commutes, p.Unknown, p.PC, p.Eq)
				}
				paths += len(pr.Paths)
				tests, _ := GenerateChecked(sp, pr, Options{})
				for _, tc := range tests {
					if err := kernel.Admit(&tc); err != nil {
						t.Errorf("a generated test is not admitted: %v", err)
					}
					if fp := tc.Setup.Fingerprint(); fp != tc.SetupID {
						t.Errorf("%s: SetupID %q is not the setup's fingerprint %q", tc.ID, tc.SetupID, fp)
					}
					if orig, clone := mustJSON(t, tc.Setup), mustJSON(t, tc.Setup.Clone()); orig != clone {
						t.Errorf("%s: the setup's clone encodes as\n%s\nnot as the setup\n%s", tc.ID, clone, orig)
					}
					fmt.Fprintf(h, "%s\n%v\n%v\n%s\n", tc.ID, tc.Calls[0], tc.Calls[1], tc.SetupID)
					for j, im := range impls {
						hashTrace(traceH[j], im.New, tc)
					}
					n++
				}
			}
		}
		line := fmt.Sprintf("%s/%s lowestfd=%t", u.spec, u.set, u.cfg.LowestFD)
		fmt.Fprintf(&analysis, "%s paths=%d sha256=%x\n", line, paths, pathH.Sum(nil))
		fmt.Fprintf(&corpus, "%s tests=%d sha256=%x\n", line, n, h.Sum(nil))
		for j, im := range impls {
			fmt.Fprintf(&traces, "%s %s tests=%d sha256=%x\n", line, im.Name, n, traceH[j].Sum(nil))
		}
	}
	checkDigest(t, pinDir+"analysis.digest", analysis.String())
	checkDigest(t, pinDir+"corpus.digest", corpus.String())
	checkDigest(t, pinDir+"trace.digest", traces.String())
}

// mustJSON is v's JSON encoding.
func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// hashTrace writes to h what the reference checker reports for tc on fresh
// kernels, followed by the traced run's access log.
func hashTrace(h io.Writer, fresh func() kernel.Kernel, tc kernel.TestCase) {
	var traced *mtrace.Memory // Check traces on the first kernel it builds
	res, swapped := kerneltest.Check(kerneltest.Logged(fresh, func(m *mtrace.Memory) {
		if traced == nil {
			traced = m
		}
	}), tc)
	fmt.Fprintf(h, "%s\n%v %v commuted=%t\n", tc.ID, res.Res[0], res.Res[1], res.Res == swapped)
	for _, c := range res.Conflicts {
		fmt.Fprintf(h, "conflict %s\n", c)
	}
	for _, a := range kerneltest.AccessLog(traced) {
		fmt.Fprintf(h, "%s\n", a)
	}
}

// checkDigest compares got with the file at path, or rewrites the file
// under -update.
func checkDigest(t *testing.T, path, got string) {
	t.Helper()
	if *updateCorpus {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("%s changed:\n got:\n%s\nwant:\n%s", path, got, want)
	}
}
