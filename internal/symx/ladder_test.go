package symx

import (
	"testing"

	"repro/internal/sym"
)

// TestLadderAnswersWithoutSearch pins the rungs of Context.feasible that
// come before the solver, through every caller: an Assume whose negation
// is already a path-condition conjunct aborts with no search at all, and a
// condition refuted once is answered from infeas the second time it is
// assumed or branched on.
func TestLadderAnswersWithoutSearch(t *testing.T) {
	x, y := sym.Var("ldx", sym.IntSort), sym.Var("ldy", sym.IntSort)
	assumeAborts := func(c *Context, cond *sym.Expr) bool {
		_, aborted := runOne(c, func(c *Context) any { c.Assume(cond); return nil })
		return aborted
	}

	solver := &sym.Solver{}
	c := newContext(nil, solver, &Context{})
	neg := sym.Lt(x, sym.Int(0))
	c.Assume(neg)
	before := solver.Stats().SatCalls
	if !assumeAborts(c, sym.Not(neg)) {
		t.Error("assuming the negation of a path-condition conjunct did not abort")
	}
	if !assumeAborts(c, sym.And(sym.Eq(y, sym.Int(1)), sym.Not(neg))) {
		t.Error("assuming a conjunction holding such a negation did not abort")
	}
	c.Assume(neg) // already a conjunct: nothing to decide
	if got := solver.Stats().SatCalls - before; got != 0 {
		t.Errorf("syntactically decided assumptions ran %d solver searches, want 0", got)
	}

	// x < 0 refutes x > 5 only semantically: one search, then never again.
	refuted := sym.Gt(x, sym.Int(5))
	if !assumeAborts(c, refuted) {
		t.Fatal("x < 0 ∧ x > 5 was admitted")
	}
	if got := solver.Stats().SatCalls - before; got != 1 {
		t.Fatalf("refuting x > 5 took %d searches, want 1", got)
	}
	if !assumeAborts(c, refuted) {
		t.Error("second assumption of a refuted condition was admitted")
	}
	afterAssumes := solver.Stats().SatCalls
	if got := afterAssumes - before; got != 1 {
		t.Errorf("second assumption of a refuted condition searched again (%d searches in all)", got)
	}
	// Branch asks about both sides: the refuted side comes from infeas, so
	// only the negation costs a search.
	if c.Branch(refuted) {
		t.Error("branch took the refuted side")
	}
	if got := solver.Stats().SatCalls - afterAssumes; got != 1 {
		t.Errorf("branching on a refuted condition ran %d searches, want 1 (its negation)", got)
	}
	if c.budgeted {
		t.Error("complete refutations marked the context budgeted")
	}
}
