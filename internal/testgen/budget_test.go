package testgen

import (
	"testing"

	"repro/internal/model"
	"repro/internal/sym"
)

// TestClassFormulaDegenerate pins the single-pass enumeration's stopping
// precondition: with no class-distinguishing variables (no booleans,
// fewer than two same-sort non-booleans), distinguishes is false — as the
// class formula it replaced was True — so every model is one class, and
// Generate must stop after the first instead of walking the whole model
// space.
func TestClassFormulaDegenerate(t *testing.T) {
	x := sym.Var("cfd.x", sym.IntSort)
	k := sym.Var("cfd.k", model.FilenameSort)
	m := modelOf([]*sym.Expr{x, k}, 1, 0)
	for _, vars := range [][]*sym.Expr{nil, {x}, {x, k}} {
		if distinguishes(vars) {
			t.Errorf("%v: no two models can differ in class, yet distinguishes is true", vars)
		}
		if cf := classFormula(m, vars); !cf.IsTrue() {
			t.Errorf("%v: want the degenerate class formula, got %v", vars, cf)
		}
	}
	if y := sym.Var("cfd.y", sym.IntSort); !distinguishes([]*sym.Expr{x, k, y}) {
		t.Error("two integers can be equal or distinct: distinguishes must be true")
	}
}

// TestGenerateCheckedReportsTruncation pins the budget surface: when the
// class enumeration runs out of solver steps, GenerateChecked says so
// instead of silently under-generating; with the default budget the same
// pair reports zero truncation.
func TestGenerateCheckedReportsTruncation(t *testing.T) {
	pr := analyze(t, "stat", "stat")
	nCommut := len(pr.CommutativePaths())
	if nCommut == 0 {
		t.Fatal("stat x stat should have commutative paths")
	}

	full, truncated := GenerateChecked(model.Spec, pr, Options{})
	if truncated != 0 {
		t.Errorf("default budget reported %d truncated paths", truncated)
	}
	if len(full) == 0 {
		t.Fatal("no tests generated")
	}

	tiny, truncated := GenerateChecked(model.Spec, pr, Options{Solver: &sym.Solver{MaxSteps: 3}})
	if truncated == 0 {
		t.Error("three-step budget truncated no enumerations")
	}
	if truncated > nCommut {
		t.Errorf("%d truncated paths exceeds the %d commutative paths", truncated, nCommut)
	}
	if len(tiny) >= len(full) {
		t.Errorf("truncated generation produced %d tests, full budget %d", len(tiny), len(full))
	}
}
