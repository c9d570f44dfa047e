package symx

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/sym"
)

// TestLadderAnswersWithoutSearch pins the rungs of Context.feasible that
// come before the solver, through every caller: an Assume whose negation
// is already a path-condition conjunct aborts with no search at all, and a
// condition refuted once is answered from infeas the second time it is
// assumed or branched on.
func TestLadderAnswersWithoutSearch(t *testing.T) {
	solver := &sym.Solver{}
	x, y := solver.Scope().Var("ldx", sym.IntSort), solver.Scope().Var("ldy", sym.IntSort)
	assumeAborts := func(c *Context, cond *sym.Expr) bool {
		_, aborted := runOne(c, func(c *Context) any { c.Assume(cond); return nil })
		return aborted
	}

	c := newContext(nil, solver)
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

// TestFinishedPathHoldsNoContext pins the one-Context exploration. Every
// replay runs on one Context, and Sat asked as a replay's last act answers
// on that path's condition; since the next replay reuses the Context, a
// Path has no field that could reach it and answer on another path's
// condition. A replay that aborts inside a MakeVal leaves nothing behind
// that the next replay trips over.
func TestFinishedPathHoldsNoContext(t *testing.T) {
	nameSort := sym.Uninterpreted("Name")
	var (
		seen    []*Context
		answers = map[bool]bool{}
	)
	paths, _, err := RunCtx(context.Background(), func(c *Context) any {
		seen = append(seen, c)
		v := c.Var("ncv", sym.IntSort, KindState)
		c.Branch(sym.Lt(v, sym.Int(0))) // the taken side aborts in MakeVal
		NewDict(c, "nc", func(c *Context, tag string) *Struct {
			c.Assume(sym.Le(sym.Int(0), c.Var("ncv", sym.IntSort, KindState)))
			return NewStruct(c, "w", c.Var(tag+".w", sym.IntSort, KindState))
		}).GetFunc(c, K(c.Var("nck", nameSort, KindArg)))
		big := c.Branch(sym.Lt(sym.Int(5), v))
		sat, unknown := c.Sat(sym.Lt(v, sym.Int(3)))
		if unknown {
			t.Errorf("path %v: unknown answer", c.pc())
		}
		answers[big] = sat
		return big
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 2 || len(seen) != 3 || seen[0] != seen[1] || seen[1] != seen[2] {
		t.Fatalf("%d paths from replays on Contexts %v; want two paths, three replays on one Context", len(paths), seen)
	}
	if !answers[false] || answers[true] {
		t.Errorf("v < 3: %v on 0 ≤ v ≤ 5, %v on v > 5; want true, false", answers[false], answers[true])
	}
	path := reflect.TypeFor[Path]()
	for i := range path.NumField() {
		if f := path.Field(i); f.Type == reflect.TypeFor[*Context]() {
			t.Errorf("Path.%s holds a Context the next replay reuses", f.Name)
		}
	}
}
