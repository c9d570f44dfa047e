package symx

import (
	"context"
	"testing"

	"repro/internal/sym"
)

// TestPathBudgetedFlag pins the exploration-side budget surface: when a
// feasibility check exhausts the solver's step budget, RunCtx reports the
// completed path's exploration budgeted so downstream classification can
// report unknown instead of trusting an unproven "infeasible".
func TestPathBudgetedFlag(t *testing.T) {
	run := func(maxSteps int) ([]Path, bool) {
		paths, budgeted, err := RunCtx(context.Background(), func(c *Context) any {
			x := c.Var("bgx", sym.IntSort, KindArg)
			c.Assume(sym.Eq(x, sym.Int(0))) // cheap: decided within any budget here
			y := c.Var("bgy", sym.IntSort, KindArg)
			z := c.Var("bgz", sym.IntSort, KindArg)
			// Unsatisfiable branch condition over two fresh variables: the
			// true-side refutation needs more steps than the tiny budget
			// allows, while the false side satisfies immediately.
			c.Branch(sym.And(sym.Lt(y, z), sym.Lt(z, y)))
			return nil
		}, Options{Solver: &sym.Solver{MaxSteps: maxSteps}})
		if err != nil {
			t.Fatal(err)
		}
		return paths, budgeted
	}

	tight, budgeted := run(8)
	if len(tight) != 1 {
		t.Fatalf("tight budget: %d paths, want 1", len(tight))
	}
	if !budgeted {
		t.Error("budget-truncated refutation did not report the exploration budgeted")
	}

	roomy, budgeted := run(0) // default budget: the refutation completes for real
	if len(roomy) != 1 {
		t.Fatalf("roomy budget: %d paths, want 1", len(roomy))
	}
	if budgeted {
		t.Error("fully proven path reported budgeted")
	}
}

// TestBudgetedSurvivesAbortedReplay pins the aggregation across replays:
// when the budget event aborts the very replay that hit it, the news must
// still reach the caller beside the paths that do survive — otherwise a
// possibly-wrongly-pruned path leaves no trace and the pair reads as
// definitively classified.
func TestBudgetedSurvivesAbortedReplay(t *testing.T) {
	paths, budgeted, err := RunCtx(context.Background(), func(c *Context) any {
		p := c.Var("abp", sym.BoolSort, KindArg)
		if c.Branch(p) {
			y := c.Var("aby", sym.IntSort, KindArg)
			z := c.Var("abz", sym.IntSort, KindArg)
			// Unsatisfiable, but the refutation exceeds the tiny budget:
			// this replay aborts carrying the only budgeted flag.
			c.Assume(sym.And(sym.Lt(y, z), sym.Lt(z, y)))
		}
		return nil
	}, Options{Solver: &sym.Solver{MaxSteps: 8}})
	if err != nil || len(paths) != 1 {
		t.Fatalf("%d paths (err %v), want 1 (the !p side)", len(paths), err)
	}
	if !budgeted {
		t.Error("budget truncation on an aborted replay was not reported with the surviving paths")
	}
}
