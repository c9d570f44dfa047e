package sym

import (
	"slices"
	"testing"
	"testing/quick"
)

func TestSolveSimpleEquality(t *testing.T) {
	fn := Uninterpreted("Filename")
	a, b := tscope.Var("a", fn), tscope.Var("b", fn)
	var s Solver

	m, ok := solve(&s, Eq(a, b))
	if !ok {
		t.Fatal("a==b should be satisfiable")
	}
	if m.Int(a, -1) != m.Int(b, -2) {
		t.Errorf("model does not satisfy a==b: %v", byName(m, []*Expr{a, b}))
	}

	m, ok = solve(&s, Ne(a, b))
	if !ok {
		t.Fatal("a!=b should be satisfiable")
	}
	if m.Int(a, -1) == m.Int(b, -1) {
		t.Errorf("model does not satisfy a!=b: %v", byName(m, []*Expr{a, b}))
	}

	if s.Sat(And(Eq(a, b), Ne(a, b))) {
		t.Error("a==b && a!=b should be unsat")
	}
}

func TestSolveIntArithmetic(t *testing.T) {
	x, y := tscope.Var("x", IntSort), tscope.Var("y", IntSort)
	var s Solver
	e := And(Eq(Add(x, y), Int(3)), Lt(x, y), Ge(x, Int(0)))
	m, ok := solve(&s, e)
	if !ok {
		t.Fatal("x+y=3, x<y, x>=0 should be satisfiable")
	}
	if xv, yv := m.Int(x, -1), m.Int(y, -1); xv+yv != 3 || xv >= yv || xv < 0 {
		t.Errorf("bad model %v", byName(m, e.vars))
	}
}

func TestSolveUnsatArithmetic(t *testing.T) {
	x := tscope.Var("x", IntSort)
	var s Solver
	if s.Sat(And(Lt(x, Int(0)), Gt(x, Int(0)))) {
		t.Error("x<0 && x>0 should be unsat")
	}
}

func TestValid(t *testing.T) {
	p := tscope.Var("p", BoolSort)
	var s Solver
	if s.Sat(Not(or(p, Not(p)))) {
		t.Error("p || !p should be valid: its negation is unsatisfiable")
	}
	if !s.Sat(Not(p)) {
		t.Error("p alone should not be valid")
	}
}

func TestEnumerateCountsBooleans(t *testing.T) {
	p, q := tscope.Var("p", BoolSort), tscope.Var("q", BoolSort)
	var s Solver
	n := 0
	s.EnumerateConjs(Conjuncts(or(p, q)), func(Model) bool { n++; return true })
	if n != 3 {
		t.Errorf("p||q has 3 models over booleans, enumerated %d", n)
	}
}

func TestEnumerateEarlyStop(t *testing.T) {
	p, q := tscope.Var("p", BoolSort), tscope.Var("q", BoolSort)
	var s Solver
	n := 0
	s.EnumerateConjs(Conjuncts(or(p, q)), func(Model) bool { n++; return n < 2 })
	if n != 2 {
		t.Errorf("enumeration should stop after 2 callbacks, got %d", n)
	}
}

func TestSmallModelPropertyDomains(t *testing.T) {
	// Three pairwise-distinct uninterpreted variables require a domain of
	// at least three elements; the solver must find a model.
	fn := Uninterpreted("Filename")
	a, b, c := tscope.Var("a", fn), tscope.Var("b", fn), tscope.Var("c", fn)
	var s Solver
	e := And(Ne(a, b), Ne(b, c), Ne(a, c))
	m, ok := solve(&s, e)
	if !ok {
		t.Fatal("three distinct names should be satisfiable")
	}
	if av, bv, cv := m.Int(a, -1), m.Int(b, -1), m.Int(c, -1); av == bv || bv == cv || av == cv {
		t.Errorf("bad model %v", byName(m, e.vars))
	}
}

func TestSolveWithUninterpretedConstants(t *testing.T) {
	fn := Uninterpreted("Filename")
	a := tscope.Var("a", fn)
	var s Solver
	e := And(Ne(a, Const(fn, 0)), Ne(a, Const(fn, 1)))
	m, ok := solve(&s, e)
	if !ok {
		t.Fatal("a distinct from two constants should be satisfiable")
	}
	if av := m.Int(a, 0); av == 0 || av == 1 {
		t.Errorf("bad model %v", byName(m, e.vars))
	}
}

func TestIteSolving(t *testing.T) {
	x := tscope.Var("x", IntSort)
	p := tscope.Var("p", BoolSort)
	var s Solver
	// ite(p, 1, 2) == x && p  forces x == 1.
	e := And(Eq(Ite(p, Int(1), Int(2)), x), p)
	m, ok := solve(&s, e)
	if !ok {
		t.Fatal("should be satisfiable")
	}
	if m.Int(x, 0) != 1 || !m.Bool(p, false) {
		t.Errorf("bad model %v", byName(m, e.vars))
	}
}

func TestSolverBudget(t *testing.T) {
	// A formula with many integer variables blows the tiny step budget.
	var e *Expr = True
	for i := 0; i < 8; i++ {
		e = And(e, Ne(tscope.Var(string(rune('a'+i)), IntSort), Int(100)))
	}
	s := Solver{MaxSteps: 10}
	if s.Sat(e) {
		// Finding a model quickly is fine too; just ensure no panic.
		return
	}
	if !s.Budget() {
		t.Error("unsat result under tiny budget should report budget exhaustion")
	}
}

// Property: any model returned by Solve actually satisfies the formula.
func TestQuickSolveModelsSatisfy(t *testing.T) {
	fn := Uninterpreted("T")
	a, b, c := tscope.Var("a", fn), tscope.Var("b", fn), tscope.Var("c", fn)
	x := tscope.Var("x", IntSort)
	f := func(w1, w2, w3 bool, k int8) bool {
		var conj []*Expr
		if w1 {
			conj = append(conj, Eq(a, b))
		} else {
			conj = append(conj, Ne(a, b))
		}
		if w2 {
			conj = append(conj, Eq(b, c))
		} else {
			conj = append(conj, Ne(b, c))
		}
		if w3 {
			conj = append(conj, Lt(x, Int(int64(k%4))))
		} else {
			conj = append(conj, Ge(x, Int(int64(k%4))))
		}
		e := And(conj...)
		var s Solver
		m, ok := solve(&s, e)
		if !ok {
			return true // unsat is acceptable for some combinations
		}
		return byName(m, e.vars).holds(e) && m.Bool(e, false)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// solve returns a model of e detached from the search that found it (a
// leaf's Model is the search's own assignment), or ok=false if e has none.
func solve(s *Solver, e *Expr) (found Model, ok bool) {
	s.EnumerateConjs(Conjuncts(e), func(m Model) bool {
		found, ok = Model{vals: slices.Clone(m.vals), set: slices.Clone(m.set)}, true
		return false // stop at the first model
	})
	return found, ok
}
