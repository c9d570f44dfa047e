package sym

import (
	"fmt"
	"math/rand"
	"testing"
)

// Differential testing of the solver against brute force: random small
// formulas over a fixed finite universe, where satisfiability can be
// decided by exhaustive enumeration. The solver's candidate domains must
// subsume the universe's behavior (its domain construction guarantees
// completeness for equality patterns and constant-neighborhood arithmetic,
// which is how the generator draws its constants).

type exprGen struct {
	r     *rand.Rand
	sc    *Scope
	ints  []*Expr
	names []*Expr
	bools []*Expr
}

func newGen(r *rand.Rand) *exprGen {
	g := &exprGen{r: r, sc: newScope()}
	sortU := Uninterpreted("U")
	for i := 0; i < 3; i++ {
		g.ints = append(g.ints, g.sc.Var(string(rune('i'+i))+"x", IntSort))
		g.names = append(g.names, g.sc.Var(string(rune('u'+i))+"x", sortU))
		g.bools = append(g.bools, g.sc.Var(string(rune('p'+i))+"x", BoolSort))
	}
	return g
}

func (g *exprGen) intTerm(depth int) *Expr {
	switch g.r.Intn(4) {
	case 0:
		return Int(int64(g.r.Intn(4)))
	case 1, 2:
		return g.ints[g.r.Intn(len(g.ints))]
	default:
		if depth <= 0 {
			return g.ints[g.r.Intn(len(g.ints))]
		}
		a, b := g.intTerm(depth-1), g.intTerm(depth-1)
		if g.r.Intn(2) == 0 {
			return Add(a, b)
		}
		return Sub(a, b)
	}
}

func (g *exprGen) boolTerm(depth int) *Expr {
	if depth <= 0 {
		switch g.r.Intn(3) {
		case 0:
			return g.bools[g.r.Intn(len(g.bools))]
		case 1:
			return Eq(g.names[g.r.Intn(len(g.names))], g.names[g.r.Intn(len(g.names))])
		default:
			return Lt(g.intTerm(0), g.intTerm(0))
		}
	}
	switch g.r.Intn(6) {
	case 0:
		return Not(g.boolTerm(depth - 1))
	case 1:
		return And(g.boolTerm(depth-1), g.boolTerm(depth-1))
	case 2:
		return or(g.boolTerm(depth-1), g.boolTerm(depth-1))
	case 3:
		return Le(g.intTerm(1), g.intTerm(1))
	case 4:
		return Eq(g.intTerm(1), g.intTerm(1))
	default:
		return Ite(g.boolTerm(depth-1), g.boolTerm(depth-1), g.boolTerm(depth-1))
	}
}

// bruteSat enumerates the fixed universe: ints in [-2, 5], uninterpreted
// elements in [0, 3], booleans. The generator draws constants from [0, 3],
// so this universe is wide enough to witness every satisfiable formula the
// generator can produce (values beyond constant reach can be renamed into
// range without changing any predicate).
func bruteSat(e *Expr) bool {
	vars := Vars(e)
	m := refModel{}
	var rec func(i int) bool
	rec = func(i int) bool {
		if i == len(vars) {
			return m.holds(e)
		}
		v := vars[i]
		switch v.Sort.Kind {
		case KindBool:
			for _, b := range []bool{false, true} {
				m[v.Name] = refValue{Sort: BoolSort, Bool: b}
				if rec(i + 1) {
					return true
				}
			}
		case KindInt:
			for x := int64(-2); x <= 5; x++ {
				m[v.Name] = refValue{Sort: IntSort, Int: x}
				if rec(i + 1) {
					return true
				}
			}
		case KindUnint:
			for x := int64(0); x <= 3; x++ {
				m[v.Name] = refValue{Sort: v.Sort, Int: x}
				if rec(i + 1) {
					return true
				}
			}
		}
		delete(m, v.Name)
		return false
	}
	return rec(0)
}

func TestSolverAgainstBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	g := newGen(r)
	var s Solver
	for trial := 0; trial < 400; trial++ {
		e := g.boolTerm(3)
		want := bruteSat(e)
		got := s.Sat(e)
		if got != want {
			t.Fatalf("trial %d: solver=%v brute=%v for %v", trial, got, want, e)
		}
		// Models returned must actually satisfy the formula, under the
		// reference evaluator and under the model's own.
		if got {
			m, ok := solve(&s, e)
			if !ok {
				t.Fatalf("trial %d: Sat true but Solve failed", trial)
			}
			if ref := byName(m, e.vars); !ref.holds(e) || !m.Bool(e, false) {
				t.Fatalf("trial %d: model does not satisfy %v: %v", trial, e, ref)
			}
		}
	}
}

func TestSatAssumingAgainstDirect(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	g := newGen(r)
	var s Solver
	for trial := 0; trial < 250; trial++ {
		var base *Expr = True
		for i := 0; i < 3; i++ {
			base = And(base, g.boolTerm(2))
		}
		if !s.Sat(base) {
			continue // SatAssuming's precondition requires base SAT
		}
		extra := g.boolTerm(2)
		want := s.Sat(And(base, extra))
		got := s.SatAssuming(base, extra)
		if got != want {
			t.Fatalf("trial %d: SatAssuming=%v direct=%v\nbase: %v\nextra: %v",
				trial, got, want, base, extra)
		}
	}
}

// TestSharedSolverMatchesFreshPerQuery pins that neither the scratch a
// Solver reuses from search to search nor the answers it remembers change
// what a query sees: one Solver answering an interleaved list of
// satisfiable, unsatisfiable, budget-truncated and Stop-interrupted
// queries — over changing sets of variables, sorts and constants, through
// every entry point, every fifth one a repeat of an earlier query —
// agrees query by query with a fresh Solver per query, on the answer, on
// Budget() and, for EnumerateConjs, on the sequence of models.
func TestSharedSolverMatchesFreshPerQuery(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	g := newGen(r)
	hard := pigeonhole(8)
	sortU, sortW := Uninterpreted("U"), Uninterpreted("W")
	u, w1, w2 := g.names[0], g.sc.Var("w1x", sortW), g.sc.Var("w2x", sortW)
	withConsts := []*Expr{
		And(Ne(u, Const(sortU, 0)), Ne(u, Const(sortU, 1)), Ne(w1, w2)),
		And(Eq(w1, Const(sortW, 5)), Ne(w2, Const(sortW, 5)), Lt(g.ints[0], Int(40))),
		And(Eq(w1, w2), Ne(w1, Const(sortW, 0)), Eq(w2, Const(sortW, 0))),
	}
	type query struct {
		e, extra *Expr
		maxSteps int
		stop     func() bool
		entry    int
	}
	var asked []query
	var shared Solver
	for trial := 0; trial < 400; trial++ {
		q := query{e: g.boolTerm(3), extra: g.boolTerm(2), entry: trial % 3}
		switch trial % 8 {
		case 2:
			q.e, q.maxSteps = hard, 700 // truncated by the budget
		case 4:
			q.e, q.stop = hard, func() bool { return true } // interrupted
		case 6:
			q.e = withConsts[r.Intn(len(withConsts))]
		}
		if trial%5 == 3 {
			q = asked[r.Intn(len(asked))]
		}
		asked = append(asked, q)
		run := func(s *Solver) (string, bool) {
			s.MaxSteps, s.Stop = q.maxSteps, q.stop
			switch q.entry {
			case 0:
				m, ok := solve(s, q.e)
				return fmt.Sprint(ok, byName(m, q.e.vars)), s.Budget()
			case 1:
				return fmt.Sprint(s.SatAssuming(q.e, q.extra)), s.Budget()
			default:
				var models []string
				s.EnumerateConjs(Conjuncts(q.e), func(m Model) bool {
					models = append(models, fmt.Sprint(byName(m, q.e.vars)))
					return len(models) < 4
				})
				return fmt.Sprint(models), s.Budget()
			}
		}
		got, gotBudget := run(&shared)
		want, wantBudget := run(&Solver{})
		if got != want || gotBudget != wantBudget {
			t.Fatalf("trial %d on %v:\n shared solver: %s (budget %v)\n fresh solver:  %s (budget %v)",
				trial, q.e, got, gotBudget, want, wantBudget)
		}
	}
	if shared.Stats().MemoHits == 0 {
		t.Error("no query was answered from memory: the repeats are not exercising it")
	}
}
