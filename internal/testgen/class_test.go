package testgen

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/sym"
)

// modelOf asks the solver for the model binding each variable to its value
// (a boolean as 0 or 1): a conjunction of equalities has one.
func modelOf(vars []*sym.Expr, vals ...int64) sym.Model {
	conj := make([]*sym.Expr, len(vars))
	for i, v := range vars {
		switch v.Sort.Kind {
		case sym.KindBool:
			conj[i] = sym.Eq(v, sym.Bool(vals[i] != 0))
		case sym.KindInt:
			conj[i] = sym.Eq(v, sym.Int(vals[i]))
		default:
			conj[i] = sym.Eq(v, sym.Const(v.Sort, vals[i]))
		}
	}
	m, ok := (&sym.Solver{}).Solve(sym.And(conj...))
	if !ok {
		panic("no model of a conjunction of bindings")
	}
	return m
}

// classFormula is the oracle for classSignature, and what TESTGEN used
// before it: the isomorphism class of model m over vars as a formula.
// Boolean variables keep their values, and every same-sort pair of
// non-boolean variables keeps its equal/distinct relation, so a model is in
// m's class exactly when it satisfies the formula. m binds every variable.
func classFormula(m sym.Model, vars []*sym.Expr) *sym.Expr {
	var conj []*sym.Expr
	for i, x := range vars {
		if x.Sort.Kind == sym.KindBool {
			if m.Bool(x, false) {
				conj = append(conj, x)
			} else {
				conj = append(conj, sym.Not(x))
			}
			continue
		}
		for _, y := range vars[i+1:] {
			if y.Sort != x.Sort {
				continue
			}
			if m.Int(x, 0) == m.Int(y, 0) {
				conj = append(conj, sym.Eq(x, y))
			} else {
				conj = append(conj, sym.Ne(x, y))
			}
		}
	}
	return sym.And(conj...)
}

// signatureOf is classSignature on scratch of its own, as a value that
// outlives the next call.
func signatureOf(m sym.Model, vars []*sym.Expr) string {
	return string(new(sigScratch).classSignature(m, vars))
}

// TestQuickClassSignatureMatchesFormula pins the signature to the formula
// it replaced: over random mixed-sort variable lists and random total
// models, two models share a signature exactly when the second satisfies
// the first's class formula, and distinguishes is false exactly when that
// formula is True (every model is one class).
func TestQuickClassSignatureMatchesFormula(t *testing.T) {
	sorts := []sym.Sort{sym.BoolSort, sym.IntSort, sym.Uninterpreted("ClsA"), sym.Uninterpreted("ClsB")}
	randomModel := func(r *rand.Rand, vars []*sym.Expr) sym.Model {
		vals := make([]int64, len(vars))
		for i, v := range vars {
			// Three values per sort: collisions are common, and so are
			// all-distinct triples.
			vals[i] = int64(r.Intn(3))
			if v.Sort.Kind == sym.KindBool {
				vals[i] = int64(r.Intn(2))
			}
		}
		return modelOf(vars, vals...)
	}
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		vars := make([]*sym.Expr, r.Intn(7))
		for i := range vars {
			vars[i] = sym.Var(fmt.Sprintf("cls.v%d", i), sorts[r.Intn(len(sorts))])
		}
		m1, m2 := randomModel(r, vars), randomModel(r, vars)
		cf := classFormula(m1, vars)
		if distinguishes(vars) == cf.IsTrue() {
			t.Logf("distinguishes=%v but class formula is %v (vars %v)", distinguishes(vars), cf, vars)
			return false
		}
		sig1, sig2 := signatureOf(m1, vars), signatureOf(m2, vars)
		same := sig1 == sig2
		if covered := m2.Bool(cf, false); same != covered {
			t.Logf("vars %v\nm1 -> %q\nm2 -> %q\nformula %v holds in m2: %v",
				vars, sig1, sig2, cf, covered)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestSeenClassCostsNoAllocation pins the leaf's commonest outcome — a
// model of a class its path already kept — to no allocation: the signature
// is built in reused scratch and looked up without becoming a string.
func TestSeenClassCostsNoAllocation(t *testing.T) {
	s := sym.Uninterpreted("ClsA")
	vars := []*sym.Expr{sym.Var("cls.a", s), sym.Var("cls.b", s), sym.Var("cls.c", sym.BoolSort), sym.Var("cls.d", sym.IntSort)}
	m := modelOf(vars, 2, 2, 1, 7)
	var sc sigScratch
	classes := map[string]bool{string(sc.classSignature(m, vars)): true}
	n := testing.AllocsPerRun(100, func() {
		if !classes[string(sc.classSignature(m, vars))] {
			t.Fatal("a model must be in its own class")
		}
	})
	if n != 0 {
		t.Errorf("a model of a seen class costs %.0f allocations, want 0", n)
	}
}
