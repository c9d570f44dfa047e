// The paper's evaluation has two halves. This package reproduces Figure 7;
// the Figure 6 half is a sweep rendered by package commuter, and what §6
// claims about it is pinned here, beside the Figure 7 claims, through that
// façade — the way any program reaches the pipeline.
package eval_test

import (
	"context"
	"strings"
	"sync"
	"testing"

	"repro/commuter"
)

// fsSweep sweeps the fast file-system operation universe on both POSIX
// kernels, once for all the tests below; the full 18-op matrix runs via
// cmd/commuter.
var fsSweep = sync.OnceValues(func() (*commuter.SweepResult, error) {
	return commuter.Local().Sweep(context.Background(),
		commuter.WithOpSet("fs"), commuter.WithTestsPerPath(4))
})

// TestGenerationCounts pins §6.1's headline: COMMUTER generates thousands
// of tests across the pairs, every pair analysis terminates, and every
// commutative pair yields at least one test.
func TestGenerationCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("matrix generation in -short mode")
	}
	res, err := fsSweep()
	if err != nil {
		t.Fatal(err)
	}
	if total := res.TotalTests(); total < 1000 {
		t.Errorf("expected thousands of generated tests over the fs subset, got %d", total)
	}
	for _, p := range res.Pairs {
		if p.Tests == 0 && p.Pair() != "pipe/pipe" {
			// Every fs pair has commutative situations (even pipe x pipe:
			// two pipes never share state).
			t.Errorf("pair %s generated no tests", p.Pair())
		}
	}
}

// TestFigure6Headline pins the paper's central empirical claim on the fs
// subset: the commutative tests are overwhelmingly conflict-free on sv6 and
// substantially less so on the Linux-like kernel (the paper reports 99% vs
// 68% over all 18 operations).
func TestFigure6Headline(t *testing.T) {
	if testing.Short() {
		t.Skip("matrix check in -short mode")
	}
	res, err := fsSweep()
	if err != nil {
		t.Fatal(err)
	}
	byKernel := map[string]commuter.Matrix{}
	for _, m := range commuter.MatricesFromSweep(res) {
		byKernel[m.Kernel] = m
	}
	linux, sv6 := byKernel["linux"], byKernel["sv6"]
	lt, lc := linux.Totals()
	st, sc := sv6.Totals()
	linuxPct := 100 * float64(lt-lc) / float64(lt)
	sv6Pct := 100 * float64(st-sc) / float64(st)
	t.Logf("linux: %.1f%% conflict-free (%d/%d); sv6: %.1f%% (%d/%d)",
		linuxPct, lt-lc, lt, sv6Pct, st-sc, st)

	if sv6Pct < 95 {
		t.Errorf("sv6 should be conflict-free for nearly all tests, got %.1f%%", sv6Pct)
	}
	if linuxPct > sv6Pct-5 {
		t.Errorf("linux (%.1f%%) should trail sv6 (%.1f%%) clearly", linuxPct, sv6Pct)
	}

	// Per-pair dominance: Linux must never beat sv6 on any cell by more
	// than noise, and the paper's marquee cells must show the gap.
	sv6Cells := map[[2]string]commuter.MatrixCell{}
	for _, c := range sv6.Cells {
		sv6Cells[[2]string{c.OpA, c.OpB}] = c
	}
	for _, lcell := range linux.Cells {
		scell := sv6Cells[[2]string{lcell.OpA, lcell.OpB}]
		if scell.Conflicts > lcell.Conflicts {
			t.Errorf("%s x %s: sv6 (%d) conflicts more than linux (%d)",
				lcell.OpA, lcell.OpB, scell.Conflicts, lcell.Conflicts)
		}
	}
	// Marquee: open x open (creating files in a shared directory) must be
	// a Linux problem and (mostly) an sv6 non-problem.
	for _, lcell := range linux.Cells {
		if lcell.OpA == "open" && lcell.OpB == "open" {
			if lcell.Conflicts == 0 {
				t.Error("linux open x open should show conflicts (dir lock, lowest FD)")
			}
			s := sv6Cells[[2]string{"open", "open"}]
			if s.Conflicts >= lcell.Conflicts {
				t.Errorf("sv6 open x open (%d) should beat linux (%d)", s.Conflicts, lcell.Conflicts)
			}
		}
	}
}

func TestFormatMatrix(t *testing.T) {
	m := commuter.Matrix{Kernel: "linux", Cells: []commuter.MatrixCell{
		{OpA: "open", OpB: "open", Total: 5, Conflicts: 2},
		{OpA: "open", OpB: "link", Total: 3, Conflicts: 0},
	}}
	out := commuter.FormatMatrix(m)
	if !strings.Contains(out, "linux (6 of 8 tests conflict-free)") {
		t.Errorf("matrix header wrong:\n%s", out)
	}
	if !strings.Contains(out, "2") || !strings.Contains(out, ".") {
		t.Errorf("matrix body wrong:\n%s", out)
	}
	if strings.Contains(out, "?") || strings.Contains(out, "solver budget") {
		t.Errorf("clean matrix mentions solver budget:\n%s", out)
	}
}

// TestFormatMatrixUnknown pins the solver-budget surface: a pair with no
// tests whose analysis hit the budget renders "?" (unclassified) rather
// than "-" (proven test-free), with a footer calling out the truncation.
func TestFormatMatrixUnknown(t *testing.T) {
	m := commuter.Matrix{Kernel: "linux", Cells: []commuter.MatrixCell{
		{OpA: "open", OpB: "open", Total: 5, Conflicts: 2},
		{OpA: "open", OpB: "link", Total: 0, Unknown: 3},
	}}
	out := commuter.FormatMatrix(m)
	if !strings.Contains(out, "?") {
		t.Errorf("unknown cell not rendered as ?:\n%s", out)
	}
	if !strings.Contains(out, "1 pair(s) hit the solver budget") {
		t.Errorf("missing solver-budget footer:\n%s", out)
	}
}
