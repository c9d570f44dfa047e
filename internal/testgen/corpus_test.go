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
	"slices"
	"strings"
	"sync"
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
// what every implementation does with it, over the universes the corpus
// walk (corpusWalk) pins: every pair of all four specs plus posix "fs"
// under the lowest-FD rule.
//
// analysis.digest has one line per pair of each spec universe with the
// path count and a SHA-256 over the pair's paths in order: index,
// Commutes, Unknown and the renderings of PC and Eq. Every Context and Dict
// call a model makes can decide a path, so a refactor of a spec's model or
// of the symbolic core must leave it untouched.
//
// corpus.digest has one line per pair of each universe with the test
// count and a SHA-256 over each test's ID, both calls and setup
// fingerprint. A refactor of the symbolic core or of TESTGEN must leave it
// untouched.
//
// trace.digest has one line per universe, registered Impl and pair with a
// SHA-256 over each test's ID, both results, whether the swapped order
// gives the same results, the conflict report (cell, writers, readers) and
// the ordered access log of the traced run, as kerneltest.Check computes
// them on fresh kernels (no Replayer). It pins
// what `testgen -check` prints and the access order Figure 7's simulator
// replays, so a refactor of a kernel or of internal/scale must leave it
// untouched too.
//
// Each universe (and Impl) also has a summary line: its total, and a
// SHA-256 over its pair lines (writeDigest).
//
// The three live in internal/pins. Regenerate any of them with -update only
// when changing what it pins is the point; a mismatch names the pairs that
// moved, and the rewrite re-keys the sweep cache entries their lines cover. Every test of the walk must also
// pass the Replayer's admission: what it refuses, TESTGEN must never
// produce; and its setup's Clone must encode to the setup's own JSON.
func TestCorpusDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("full ANALYZE+TESTGEN of every spec")
	}
	w := corpusWalk()
	if w.err != nil {
		t.Fatal(w.err)
	}
	for _, p := range w.malformed {
		t.Error(p)
	}
	checkDigest(t, pinDir+"analysis.digest", w.analysis)
	checkDigest(t, pinDir+"corpus.digest", w.corpus)
	checkDigest(t, pinDir+"trace.digest", w.traces)
}

// walkFindings is what the corpus walk finds: the three digests, the tests
// TestCorpusDigest refuses (malformed) and those TestConflictFreeIsOrderFree
// refuses (disordered), and per universe and Impl its test and
// conflict-free counts.
type walkFindings struct {
	analysis, corpus, traces string
	malformed, disordered    []string
	counts                   []string
	err                      error
}

// corpusWalk runs ANALYZE, TESTGEN and kerneltest.OrderFree on every Impl
// over every pair of all four specs, posix under both FD rules, once per
// test binary: one Check per test and Impl feeds both the trace digest and
// the order-free oracle. A universe's pinned set is a prefix of its ops, so
// its pairs are the walk's first ones: posix's "fs" under the lowest-FD
// rule is the first 45 pairs of posix/all under it.
var corpusWalk = sync.OnceValue(func() (w walkFindings) {
	var analysis, corpus, traces strings.Builder
	for _, u := range []struct {
		spec, pinned string
		cfg          spec.Config
	}{
		{"kv", "all", spec.Config{}},
		{"posix", "all", spec.Config{}},
		{"posix", "fs", spec.Config{LowestFD: true}},
		{"queue", "all", spec.Config{}},
		{"vm", "all", spec.Config{}},
	} {
		sp, err := spec.Lookup(u.spec)
		if err != nil {
			w.err = err
			return w
		}
		ops, impls := sp.Ops(), sp.Impls()
		pinned, err := spec.OpSet(sp, u.pinned)
		if err == nil && !slices.Equal(pinned, ops[:len(pinned)]) {
			err = fmt.Errorf("%s/%s is not a prefix of the spec's ops", u.spec, u.pinned)
		}
		if err != nil {
			w.err = err
			return w
		}
		g := NewGenerator(sp)
		universe := fmt.Sprintf("%s/%s lowestfd=%t", u.spec, u.pinned, u.cfg.LowestFD)
		// The universe's pair lines: its paths, its tests, and per Impl
		// its traces.
		var pathLines, testLines strings.Builder
		traceLines := make([]strings.Builder, len(impls))
		var traced *mtrace.Memory // Check traces on the first kernel it builds
		hook := func(m *mtrace.Memory) {
			if traced == nil {
				traced = m
			}
		}
		tests, pinnedTests, paths := 0, 0, 0
		conflictFree := make([]int, len(impls))
		for i, a := range ops {
			for _, b := range ops[:i+1] {
				// Earlier op first: the orientation sweep.Pairs uses.
				pr, err := analyzer.AnalyzePairCtx(context.Background(), sp, b, a, analyzer.Options{Config: u.cfg})
				if err != nil {
					w.err = err
					return w
				}
				pin := i < len(pinned)
				h, pathH := sha256.New(), sha256.New()
				traceH := make([]hash.Hash, len(impls))
				for j := range traceH {
					traceH[j] = sha256.New()
				}
				if pin {
					for pi, p := range pr.Paths {
						fmt.Fprintf(pathH, "%s,%s %d %t %t\n%s\n%s\n", pr.OpA, pr.OpB, pi, p.Commutes, p.Unknown, p.PC, p.Eq)
					}
				}
				generated, _ := g.Generate(pr, Options{})
				for _, tc := range generated {
					w.malformed = append(w.malformed, malformed(tc)...)
					if pin {
						fmt.Fprintf(h, "%s\n%v\n%v\n%s\n", tc.ID, tc.Calls[0], tc.Calls[1], tc.SetupID)
					}
					for j, im := range impls {
						traced = nil
						res, swapped, err := kerneltest.OrderFree(kerneltest.Logged(im.New, hook), tc)
						if pin {
							hashTrace(traceH[j], tc, res, swapped, traced)
						}
						if res.ConflictFree {
							conflictFree[j]++
						}
						if err != nil {
							w.disordered = append(w.disordered, fmt.Sprintf("%s lowestfd=%t: %v", u.spec, u.cfg.LowestFD, err))
						}
						if u.cfg.LowestFD {
							for ci, c := range tc.Calls {
								for _, r := range []kernel.Result{res.Res[ci], swapped[ci]} {
									if fdPastTable(c.Op, r) {
										w.disordered = append(w.disordered, fmt.Sprintf("%s %s: %s returns %v, past the spec's %d descriptors",
											im.Name, tc.ID, c, r, kernel.MaxFD))
									}
								}
							}
						}
					}
				}
				tests += len(generated)
				if !pin {
					continue
				}
				pair := pr.OpA + "," + pr.OpB
				fmt.Fprintf(&pathLines, "%s %s paths=%d sha256=%x\n", universe, pair, len(pr.Paths), pathH.Sum(nil))
				fmt.Fprintf(&testLines, "%s %s tests=%d sha256=%x\n", universe, pair, len(generated), h.Sum(nil))
				for j, im := range impls {
					fmt.Fprintf(&traceLines[j], "%s %s %s tests=%d sha256=%x\n", universe, im.Name, pair, len(generated), traceH[j].Sum(nil))
				}
				paths += len(pr.Paths)
				pinnedTests += len(generated)
			}
		}
		writeDigest(&analysis, universe, fmt.Sprintf("paths=%d", paths), pathLines.String())
		writeDigest(&corpus, universe, fmt.Sprintf("tests=%d", pinnedTests), testLines.String())
		for j, im := range impls {
			writeDigest(&traces, universe+" "+im.Name, fmt.Sprintf("tests=%d", pinnedTests), traceLines[j].String())
			w.counts = append(w.counts, fmt.Sprintf("%s lowestfd=%t %s: %d tests, %d conflict-free", u.spec, u.cfg.LowestFD, im.Name, tests, conflictFree[j]))
		}
	}
	w.analysis, w.corpus, w.traces = analysis.String(), corpus.String(), traces.String()
	return w
})

// writeDigest writes a universe's summary line, with its total and the
// hash of its pair lines, then the pair lines.
func writeDigest(w *strings.Builder, universe, total, pairs string) {
	fmt.Fprintf(w, "%s %s sha256=%x\n%s", universe, total, sha256.Sum256([]byte(pairs)), pairs)
}

// malformed lists what is wrong with tc as a test TESTGEN may produce: the
// Replayer does not admit it, its SetupID is not its setup's fingerprint,
// or its setup's Clone does not encode as the setup does.
func malformed(tc kernel.TestCase) []string {
	var bad []string
	if err := kernel.Admit(&tc); err != nil {
		bad = append(bad, fmt.Sprintf("a generated test is not admitted: %v", err))
	}
	if fp := tc.Setup.Fingerprint(); fp != tc.SetupID {
		bad = append(bad, fmt.Sprintf("%s: SetupID %q is not the setup's fingerprint %q", tc.ID, tc.SetupID, fp))
	}
	if orig, clone := mustJSON(tc.Setup), mustJSON(tc.Setup.Clone()); orig != clone {
		bad = append(bad, fmt.Sprintf("%s: the setup's clone encodes as\n%s\nnot as the setup\n%s", tc.ID, clone, orig))
	}
	return bad
}

// mustJSON is v's JSON encoding.
func mustJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return string(b)
}

// hashTrace writes to h what the reference checker reported for tc on fresh
// kernels, followed by the access log of traced, the run it traced.
func hashTrace(h io.Writer, tc kernel.TestCase, res kernel.CheckResult, swapped [2]kernel.Result, traced *mtrace.Memory) {
	fmt.Fprintf(h, "%s\n%v %v commuted=%t\n", tc.ID, res.Res[0], res.Res[1], res.Res == swapped)
	for _, c := range res.Conflicts {
		fmt.Fprintf(h, "conflict %s\n", c)
	}
	for _, a := range kerneltest.AccessLog(traced) {
		fmt.Fprintf(h, "%s\n", a)
	}
}

// checkDigest compares got with the file at path, or rewrites the file
// under -update. A mismatch names the lines that differ (digestDiff), not
// the files.
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
	if diff := digestDiff(string(want), got); len(diff) > 0 {
		t.Errorf("%s: %d lines differ (-update rewrites it):\n%s", path, len(diff), strings.Join(diff, "\n"))
	}
}

// digestDiff lists the lines of got that moved or are new against want,
// then the lines of want that got lacks, each by what it pins: its
// universe, Impl and pair, without its count and hash. A universe's
// summary line moves with any of its pairs.
func digestDiff(want, got string) []string {
	index := func(text string) (names []string, lines map[string]string) {
		lines = map[string]string{}
		for line := range strings.Lines(text) {
			f := strings.Fields(line)
			name := strings.Join(f[:max(0, len(f)-2)], " ")
			names, lines[name] = append(names, name), line
		}
		return names, lines
	}
	wantNames, wantLines := index(want)
	gotNames, gotLines := index(got)
	var diff []string
	for _, name := range gotNames {
		if old, ok := wantLines[name]; !ok {
			diff = append(diff, "added   "+name)
		} else if old != gotLines[name] {
			diff = append(diff, "moved   "+name)
		}
	}
	for _, name := range wantNames {
		if _, ok := gotLines[name]; !ok {
			diff = append(diff, "removed "+name)
		}
	}
	return diff
}

// TestDigestDiffNamesPairs holds a failing digest to naming what changed,
// line by line: a moved summary, a new pair and a pair that is gone.
func TestDigestDiffNamesPairs(t *testing.T) {
	want := "kv/all lowestfd=false tests=2 sha256=aa\n" +
		"kv/all lowestfd=false get,get tests=1 sha256=bb\n" +
		"kv/all lowestfd=false get,put tests=1 sha256=cc\n"
	got := "kv/all lowestfd=false tests=3 sha256=ad\n" +
		"kv/all lowestfd=false get,get tests=1 sha256=bb\n" +
		"kv/all lowestfd=false put,put tests=2 sha256=dd\n"
	diff := digestDiff(want, got)
	if w := []string{
		"moved   kv/all lowestfd=false",
		"added   kv/all lowestfd=false put,put",
		"removed kv/all lowestfd=false get,put",
	}; !slices.Equal(diff, w) {
		t.Errorf("diff\n%s\nwant\n%s", strings.Join(diff, "\n"), strings.Join(w, "\n"))
	}
	if d := digestDiff(want, want); len(d) != 0 {
		t.Errorf("a digest differs from itself: %v", d)
	}
}
