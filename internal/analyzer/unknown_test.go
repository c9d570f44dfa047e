package analyzer

import (
	"context"
	"testing"

	"repro/internal/model"
	"repro/internal/sym"
	"repro/internal/symx"
)

// askPath explores, with s, a model that only assumes pc and then hands its
// Context to ask: the single path's question is asked as the replay's last
// act, as analyzeOps asks it.
func askPath(t *testing.T, s *sym.Solver, pc *sym.Expr, ask func(c *symx.Context)) {
	t.Helper()
	asked := 0
	paths, _, err := symx.RunCtx(context.Background(), func(c *symx.Context) any {
		c.Assume(pc)
		asked++
		ask(c)
		return nil
	}, symx.Options{Solver: s})
	if err != nil || len(paths) != 1 || asked != 1 {
		t.Fatalf("exploring %v: %d paths, %d asked, err %v", pc, len(paths), asked, err)
	}
}

// TestCheckerBudgetUnknown pins the solver-budget soundness fix at the
// classification seam: an unsatisfiable answer from a budget-truncated
// search must come back unknown=true — also when it is repeated from the
// path's infeasibility cache — while real verdicts (sat, or unsat with
// budget to spare) stay unknown=false.
func TestCheckerBudgetUnknown(t *testing.T) {
	x, y := tvar("ckx", sym.IntSort), tvar("cky", sym.IntSort)
	unsat := sym.And(sym.Lt(x, y), sym.Lt(y, x))

	// Plenty of budget: a real refutation, not unknown.
	askPath(t, &sym.Solver{}, sym.True, func(c *symx.Context) {
		if sat, unknown := c.Sat(unsat); sat || unknown {
			t.Errorf("full budget: sat=%v unknown=%v, want false/false", sat, unknown)
		}
	})

	// One step: the search is truncated before it can prove anything, so
	// the unsat answer must be flagged unknown, the second time as well.
	askPath(t, &sym.Solver{MaxSteps: 1}, sym.True, func(c *symx.Context) {
		for _, ask := range []string{"searched", "cached"} {
			sat, unknown := c.Sat(unsat)
			if sat {
				t.Fatalf("%s: one-step budget found a model of an unsatisfiable formula", ask)
			}
			if !unknown {
				t.Errorf("%s: budget-truncated unsat answer not reported as unknown", ask)
			}
		}
	})

	// Satisfiable queries that fit the budget are definitive.
	askPath(t, &sym.Solver{}, sym.True, func(c *symx.Context) {
		if sat, unknown := c.Sat(sym.Lt(x, y)); !sat || unknown {
			t.Errorf("satisfiable query: sat=%v unknown=%v, want true/false", sat, unknown)
		}
	})
}

// TestCheckerSyntacticShortCircuits pins the hash-consing fast paths: a
// pc conjunct is satisfiable with pc, its negation is not, and neither
// answer needs (or spends) any solver budget.
func TestCheckerSyntacticShortCircuits(t *testing.T) {
	x, y := tvar("scx", sym.IntSort), tvar("scy", sym.IntSort)
	conj := sym.Lt(x, y)
	pc := sym.And(conj, sym.Ge(x, sym.Int(0)))
	s := &sym.Solver{}
	askPath(t, s, pc, func(c *symx.Context) {
		// One step would flag any real search as unknown, so unknown=false
		// proves the answers came from the syntactic short-circuits.
		s.MaxSteps = 1
		if sat, unknown := c.Sat(conj); !sat || unknown {
			t.Errorf("pc conjunct: sat=%v unknown=%v, want true/false", sat, unknown)
		}
		if sat, unknown := c.Sat(sym.Not(conj)); sat || unknown {
			t.Errorf("negated pc conjunct: sat=%v unknown=%v, want false/false", sat, unknown)
		}
	})
}

// TestFullyTruncatedPairIsUnknown pins the harshest budget case: when
// exploration is truncated so hard that no path survives, the pair must
// still report unknown — an empty path list with a clean Unknown()==0
// would read as "no feasible executions", the exact silent
// under-approximation the budget plumbing exists to prevent.
func TestFullyTruncatedPairIsUnknown(t *testing.T) {
	op := opOf(t, "stat")
	r, err := AnalyzePairCtx(context.Background(), model.Spec, op, op, Options{Solver: &sym.Solver{MaxSteps: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Paths) != 0 {
		t.Skipf("one-step budget still explored %d paths; test needs a harsher setup", len(r.Paths))
	}
	if !r.Budgeted {
		t.Fatal("fully truncated exploration did not set Budgeted")
	}
	if r.Unknown() != 1 {
		t.Errorf("Unknown() = %d, want 1 for a fully truncated pair", r.Unknown())
	}
}

// TestPathCapIsUnknown pins that an exploration cut off by MaxPaths with
// branches left is reported as the under-approximation it is, never as a
// complete analysis of a pair that happens to have few paths.
func TestPathCapIsUnknown(t *testing.T) {
	full := analyze(t, "stat", "unlink", Options{})
	if len(full.Paths) < 2 || full.Unknown() != 0 {
		t.Fatalf("stat/unlink uncapped: %d paths, %d unknown; want a clean multi-path pair", len(full.Paths), full.Unknown())
	}
	capped := analyze(t, "stat", "unlink", Options{MaxPaths: 1})
	if len(capped.Paths) != 1 {
		t.Fatalf("MaxPaths 1 explored %d paths", len(capped.Paths))
	}
	if !capped.Budgeted || capped.Unknown() == 0 || !capped.Paths[0].Unknown {
		t.Errorf("capped analysis reads as complete: budgeted %v, unknown %d", capped.Budgeted, capped.Unknown())
	}
}
