package sym

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// chronological lists the models of conjs the way a search without pruning,
// ordering or backjumping would meet them: every combination of the
// candidate domains, first variable slowest, each decided by partialEval.
// ok is false when there are more than limit combinations to try.
func chronological(conjs []*Expr, limit int) (models []refModel, ok bool) {
	doms := (&Solver{}).domains(conjs)
	combos := 1
	for _, d := range doms {
		if combos *= len(d.vals); combos > limit {
			return nil, false
		}
	}
	e := And(conjs...)
	m := refModel{}
	var rec func(i int)
	rec = func(i int) {
		if i == len(doms) {
			if m.holds(e) {
				models = append(models, maps.Clone(m))
			}
			return
		}
		for _, val := range doms[i].vals {
			m[doms[i].v.Name] = refValueOf(doms[i].v.Sort, val)
			rec(i + 1)
		}
	}
	rec(0)
	return models, true
}

// pattern renders what a model over booleans and uninterpreted sorts says
// up to a renaming of elements: each boolean's value, and for every other
// variable the first variable of its sort holding the same element.
func pattern(m refModel, vars []*Expr) string {
	var b strings.Builder
	for i, x := range vars {
		if x.Sort.Kind == KindBool {
			fmt.Fprintf(&b, "%v,", m[x.Name].Bool)
			continue
		}
		first := i
		for j, y := range vars[:i] {
			if y.Sort == x.Sort && m[y.Name].Int == m[x.Name].Int {
				first = j
				break
			}
		}
		fmt.Fprintf(&b, "%d,", first)
	}
	return b.String()
}

// universePatterns is the set of patterns of e's models over bruteSat's
// fixed universe (elements 0..3, booleans); e has no integer variable.
func universePatterns(e *Expr) map[string]bool {
	out := map[string]bool{}
	m := refModel{}
	var rec func(i int)
	rec = func(i int) {
		if i == len(e.vars) {
			if m.holds(e) {
				out[pattern(m, e.vars)] = true
			}
			return
		}
		v, n := e.vars[i], int64(4)
		if v.Sort.Kind == KindBool {
			n = 2
		}
		for x := int64(0); x < n; x++ {
			m[v.Name] = refValueOf(v.Sort, x)
			rec(i + 1)
		}
	}
	rec(0)
	return out
}

// FuzzEnumerateWitnesses holds every Model an Enumerate leaf receives, on
// exprGen's DAGs, to code the search shares nothing with: a by-name copy of
// it binds exactly the formula's variables and satisfies every conjunct
// under partialEval (and the Model's own evaluator agrees); the leaf sees
// the models chronological enumeration of the candidate domains gives, in
// that order; and where the domains are complete — booleans and
// uninterpreted sorts; with an integer variable they are a heuristic, the
// open bug FuzzSatAssumingAgainstBruteForce's comment records — they are,
// up to a renaming of elements, exactly the models brute force finds over
// bruteSat's fixed universe.
func FuzzEnumerateWitnesses(f *testing.F) {
	for seed := int64(1); seed <= 8; seed++ {
		data := make([]byte, 512)
		rand.New(rand.NewSource(seed)).Read(data)
		f.Add(data)
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		g := newGen(rand.New(&byteSource{data}))
		e := And(g.boolTerm(2), g.boolTerm(2), g.boolTerm(2))
		conjs := Conjuncts(e)
		var s Solver
		var got []refModel
		s.Enumerate(e, func(m Model) bool {
			ref := byName(m, e.vars)
			if len(ref) != len(e.vars) {
				t.Fatalf("leaf model binds %v of the variables of %v", ref, e)
			}
			for _, c := range conjs {
				if !ref.holds(c) || !m.Bool(c, false) {
					t.Fatalf("model %v: conjunct %v is %v under partialEval, %v under the model\nformula: %v",
						ref, c, ref.holds(c), m.Bool(c, false), e)
				}
			}
			got = append(got, ref)
			return true
		})
		if s.Budget() {
			t.Fatalf("budget exhausted on %v", e)
		}
		if want, ok := chronological(conjs, 1<<14); ok && !slices.EqualFunc(got, want, maps.Equal[refModel, refModel]) {
			t.Fatalf("Enumerate's models differ from chronological enumeration's\n got: %v\nwant: %v\nformula: %v", got, want, e)
		}
		if !hasIntVar(e) {
			found := map[string]bool{}
			for _, m := range got {
				found[pattern(m, e.vars)] = true
			}
			if want := universePatterns(e); !maps.Equal(found, want) {
				t.Fatalf("Enumerate's models, up to renaming: %v\nbrute force over the universe: %v\nformula: %v", found, want, e)
			}
		}
	})
}

// TestEnumerateLeafCostsNothingPerModel pins what handing the leaf the
// search's own assignment buys: Enumerate over a formula with 2N models
// allocates what it does over one with N, reads of the Model included.
func TestEnumerateLeafCostsNothingPerModel(t *testing.T) {
	c := Var("leafcost.c", BoolSort)
	conjs := []*Expr{c}
	var free []*Expr
	for i := 0; i < 8; i++ {
		b := Var(fmt.Sprintf("leafcost.b%d", i), BoolSort)
		free = append(free, b)
		conjs = append(conjs, Or(b, c))
	}
	twoN := And(conjs...)   // c, and every b free
	n := And(twoN, free[0]) // the same variables, one of them bound
	allocs := func(e *Expr, models int) float64 {
		var s Solver
		seen, sum := 0, int64(0)
		leaf := func(m Model) bool {
			seen++
			sum += m.Int(free[7], 0)
			return m.Bool(e, false)
		}
		s.Enumerate(e, leaf) // size the scratch
		if seen != models || sum != int64(models/2) {
			t.Fatalf("%d models summing %d, want %d", seen, sum, models)
		}
		return testing.AllocsPerRun(20, func() { s.Enumerate(e, leaf) })
	}
	if small, large := allocs(n, 128), allocs(twoN, 256); small != large {
		t.Errorf("128 models cost %.0f allocations, 256 cost %.0f: the leaf costs sym something per model", small, large)
	}
}
