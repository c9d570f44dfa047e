package symx

import (
	"testing"

	"repro/internal/sym"
)

// TestPathBudgetedFlag pins the exploration-side budget surface: when a
// feasibility check exhausts the solver's step budget, the completed path
// carries Budgeted=true so downstream classification can report unknown
// instead of trusting an unproven "infeasible".
func TestPathBudgetedFlag(t *testing.T) {
	run := func(maxSteps int) []Path {
		return explore(func(c *Context) any {
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
	}

	tight := run(8)
	if len(tight) != 1 {
		t.Fatalf("tight budget: %d paths, want 1", len(tight))
	}
	if !tight[0].Budgeted {
		t.Error("budget-truncated refutation did not mark the path Budgeted")
	}

	roomy := run(0) // default budget: the refutation completes for real
	if len(roomy) != 1 {
		t.Fatalf("roomy budget: %d paths, want 1", len(roomy))
	}
	if roomy[0].Budgeted {
		t.Error("fully proven path marked Budgeted")
	}
}

// TestBudgetedSurvivesAbortedReplay pins the aggregation across replays:
// when the budget event aborts the very replay that hit it, the news must
// still reach the caller through the paths that do survive — otherwise a
// possibly-wrongly-pruned path leaves no trace and the pair reads as
// definitively classified.
func TestBudgetedSurvivesAbortedReplay(t *testing.T) {
	paths := explore(func(c *Context) any {
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
	if len(paths) != 1 {
		t.Fatalf("%d paths, want 1 (the !p side)", len(paths))
	}
	if !paths[0].Budgeted {
		t.Error("budget truncation on an aborted replay left surviving paths unmarked")
	}
}
