package commuter_test

import (
	"strings"
	"testing"

	"repro/commuter"
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
