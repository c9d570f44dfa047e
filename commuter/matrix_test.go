package commuter_test

import (
	"strings"
	"testing"

	"repro/commuter"
	"repro/internal/sweep"
)

// TestFormatMatrixForeignOp renders a result naming an op the local
// registry lacks — what a Dial client reads from a newer server. The
// foreign op gets its own row after the known ones; its count must not
// land on another pair's cell (it used to overwrite the first: "open 5").
func TestFormatMatrixForeignOp(t *testing.T) {
	out := commuter.FormatMatrix(commuter.Matrix{Kernel: "sv6", Spec: "posix", Cells: []commuter.MatrixCell{
		{OpA: "open", OpB: "open", Total: 3},
		{OpA: "open", OpB: "link", Total: 2, Conflicts: 1},
		{OpA: "open", OpB: "frob", Total: 5, Conflicts: 5},
	}})
	// link/link, link/frob and frob/frob, which no cell names, stay blank.
	want := []string{
		"sv6 (4 of 10 tests conflict-free)",
		"open           .",
		"link           1",
		"frob           5",
		"            open  link  frob",
	}
	got := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(got) != len(want) {
		t.Fatalf("matrix has %d lines, want %d:\n%s", len(got), len(want), out)
	}
	for i := range want {
		if g := strings.TrimRight(got[i], " "); g != want[i] {
			t.Errorf("line %d = %q, want %q", i, g, want[i])
		}
	}
}

// TestMatricesFromSweepCarriesUnknown builds a result by hand in which the
// analysis of stat/stat hit its budget and found no tests: the pair's
// Unknown reaches its cell, which renders "?" rather than the "-" of a
// pair that never commutes, the footer says the counts are lower bounds,
// and the neighbouring pair's cell is unmarked.
func TestMatricesFromSweepCarriesUnknown(t *testing.T) {
	ms := commuter.MatricesFromSweep(&commuter.SweepResult{Spec: "posix", Pairs: []commuter.SweepPair{
		{OpA: "stat", OpB: "stat", Unknown: 2, Cells: []sweep.KernelCell{{Kernel: "sv6"}}},
		{OpA: "stat", OpB: "close", Tests: 3, Cells: []sweep.KernelCell{{Kernel: "sv6", Total: 3, Conflicts: 1}}},
	}})
	if len(ms) != 1 {
		t.Fatalf("%d matrices, want 1", len(ms))
	}
	for _, c := range ms[0].Cells {
		if want := map[string]int{"stat/stat": 2}[c.OpA+"/"+c.OpB]; c.Unknown != want {
			t.Errorf("cell %s/%s: Unknown %d, want %d", c.OpA, c.OpB, c.Unknown, want)
		}
	}
	out := commuter.FormatMatrix(ms[0])
	want := []string{
		"sv6 (2 of 3 tests conflict-free)",
		"stat           ?",
		"close          1",
		"            stat close",
		`1 pair(s) hit the solver budget: their counts are lower bounds ("?" = unclassified)`,
	}
	got := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(got) != len(want) {
		t.Fatalf("matrix has %d lines, want %d:\n%s", len(got), len(want), out)
	}
	for i := range want {
		if g := strings.TrimRight(got[i], " "); g != want[i] {
			t.Errorf("line %d = %q, want %q", i, g, want[i])
		}
	}
}
