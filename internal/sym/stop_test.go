package sym

import "testing"

// pigeonhole builds an unsatisfiable formula — n integer variables,
// pairwise distinct, each confined to [0, n-2] — whose refutation requires
// exhausting a search space of tens of thousands of nodes. It is the
// cheapest way to observe where a search stops: a satisfiable formula ends
// at its first model, which the enumeration order can reach arbitrarily
// early.
func pigeonhole(n int) *Expr {
	vars := make([]*Expr, n)
	conjs := []*Expr{}
	for i := range vars {
		vars[i] = tscope.Var(string(rune('a'+i)), IntSort)
		conjs = append(conjs, Ge(vars[i], Int(0)), Le(vars[i], Int(int64(n-2))))
	}
	for i := range vars {
		for j := i + 1; j < n; j++ {
			conjs = append(conjs, Not(Eq(vars[i], vars[j])))
		}
	}
	return And(conjs...)
}

// TestSolverStopHook pins the cancellation hook's contract: once Stop
// reports true, the in-flight search aborts at the next poll, the answer
// reads as unsatisfiable, and Budget() reports true so the caller knows
// the "no" is not a proof.
func TestSolverStopHook(t *testing.T) {
	e := pigeonhole(8)

	// Baseline: the full refutation must cost well over one poll interval
	// (else the stopped run below proves nothing) and finish within the
	// default budget, reporting a definitive unsat.
	base := Solver{}
	if _, ok := solve(&base, e); ok {
		t.Fatal("pigeonhole formula is satisfiable; test formula needs adjusting")
	}
	if base.Budget() {
		t.Fatal("baseline refutation exceeded the default budget")
	}
	if base.steps <= stopCheckMask+1 {
		t.Fatalf("baseline refutation took only %d steps (want > %d)", base.steps, stopCheckMask+1)
	}

	polls := 0
	s := Solver{Stop: func() bool { polls++; return true }}
	if _, ok := solve(&s, e); ok {
		t.Error("stopped search returned a model of an unsatisfiable formula")
	}
	if !s.Budget() {
		t.Error("stopped search did not report Budget() (its answer would read as a proof)")
	}
	if polls == 0 {
		t.Error("Stop hook was never polled")
	}
	if s.steps > stopCheckMask+1 {
		t.Errorf("search ran %d steps under a Stop hook that always fires (want <= %d)", s.steps, stopCheckMask+1)
	}

	// A hook that never fires must not perturb the verdict or mark the
	// result as truncated.
	s2 := Solver{Stop: func() bool { return false }}
	if _, ok := solve(&s2, e); ok {
		t.Error("non-firing Stop hook changed the verdict")
	}
	if s2.Budget() {
		t.Error("non-firing Stop hook marked the result as budget-truncated")
	}
}
