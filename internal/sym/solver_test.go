package sym

import (
	"fmt"
	"math/rand"
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

// refDomains is what domains computes, built as it was with a visited set:
// the candidate values of each free variable of conjs (one per VarID, as
// the solver binds them), in first-occurrence order, from the constants
// under the conjuncts, each node walked once.
func refDomains(conjs []*Expr) [][]int64 {
	visited := map[*Expr]bool{}
	ints := []int64{-1, 0, 1, 2}
	consts := map[Sort][]int64{}
	var walk func(x *Expr)
	walk = func(x *Expr) {
		if visited[x] {
			return
		}
		visited[x] = true
		if x.Op == OpConst && x.Sort.Kind == KindInt {
			ints = append(ints, x.Int-1, x.Int, x.Int+1)
		} else if x.Op == OpConst && x.Sort.Kind == KindUnint {
			consts[x.Sort] = append(consts[x.Sort], x.Int)
		}
		for _, a := range x.Args {
			walk(a)
		}
	}
	var vars []*Expr
	nvars := map[Sort]int{}
	for _, c := range conjs {
		for _, v := range c.vars {
			if !slices.ContainsFunc(vars, func(w *Expr) bool { return w.VarID == v.VarID }) {
				vars = append(vars, v)
				nvars[v.Sort]++
			}
		}
		walk(c)
	}
	slices.Sort(ints)
	ints = slices.Compact(ints)
	out := make([][]int64, len(vars))
	for i, v := range vars {
		switch v.Sort.Kind {
		case KindBool:
			out[i] = []int64{0, 1}
		case KindInt:
			out[i] = ints
		case KindUnint:
			cs := slices.Compact(slices.Sorted(slices.Values(consts[v.Sort])))
			ids := slices.Clone(cs)
			for next := int64(0); len(ids) < len(cs)+nvars[v.Sort]; next++ {
				if !slices.Contains(cs, next) {
					ids = append(ids, next)
				}
			}
			slices.Sort(ids)
			out[i] = ids
		}
	}
	return out
}

// TestDomainsMatchVisitedSetWalk holds the candidate domains, whose
// constant walk marks the nodes it visits with their scope's stamp, to
// those a walk with a visited set builds: random conjunct lists over
// integer, boolean and uninterpreted terms, with the constants of both
// sorts, on one reused Solver, from one scope and from two interleaved.
func TestDomainsMatchVisitedSetWalk(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	gens := [2]*exprGen{newGen(r), newGen(r)}
	sortU := Uninterpreted("U")
	var s Solver
	for trial := 0; trial < 500; trial++ {
		var conjs []*Expr
		for i := 0; i < 1+r.Intn(4); i++ {
			g := gens[0]
			if trial%2 == 1 {
				g = gens[i%2]
			}
			c := g.boolTerm(3)
			if r.Intn(2) == 0 {
				c = And(c, Ne(g.names[r.Intn(len(g.names))], Const(sortU, int64(r.Intn(4)))))
			}
			conjs = append(conjs, c)
		}
		want := refDomains(conjs)
		doms := s.domains(conjs)
		if len(doms) != len(want) {
			t.Fatalf("trial %d: %d domains, want %d", trial, len(doms), len(want))
		}
		for i, d := range doms {
			if !slices.Equal(d.vals, want[i]) {
				t.Fatalf("trial %d: %s has candidates %v, want %v (conjuncts %v)", trial, d.v, d.vals, want[i], conjs)
			}
		}
	}
}

// TestForgetTwiceThenSearch: two resets with no search between them — a
// sweep worker's Solver is forgotten at every pair, so a pair that runs no
// search is one — leave the next search exactly as a fresh Solver's. The
// second reset hands the last search's node slots out again, here to new
// variables, so a search that still read them would clear the positions
// of variables it never placed.
func TestForgetTwiceThenSearch(t *testing.T) {
	var s Solver
	sc := s.Scope()
	x, y := sc.Var("twice.x", IntSort), sc.Var("twice.y", IntSort)
	if !s.Sat(And(Lt(x, y), Lt(y, Int(3)))) {
		t.Fatal("x < y < 3 should be satisfiable")
	}
	s.Forget()
	s.Forget()
	build := func(sc *Scope) (*Expr, []*Expr) {
		vars := make([]*Expr, 50)
		for i := range vars {
			vars[i] = sc.Var(fmt.Sprintf("twice.%d", i), BoolSort)
		}
		e := Not(vars[0])
		for i := range vars {
			e = And(e, Implies(Not(vars[i]), Not(vars[(i+1)%len(vars)])))
		}
		return e, vars
	}
	e, vars := build(sc)
	fresh, _ := build(newScope())
	m, ok := solve(&s, e)
	if _, wantOK := solve(new(Solver), fresh); ok != wantOK || !ok {
		t.Fatalf("satisfiable: %v, %v on a fresh Solver", ok, wantOK)
	}
	for i, v := range vars {
		if m.Bool(v, true) {
			t.Fatalf("variable %d is true in the model; the formula makes every one false", i)
		}
	}
}
