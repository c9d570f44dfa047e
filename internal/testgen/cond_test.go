package testgen

import (
	"context"
	"slices"
	"testing"

	"repro/internal/analyzer"
	"repro/internal/spec"
	"repro/internal/sym"
	"repro/internal/symx"
)

// refSignatures is what TESTGEN enumerated before a path's condition stopped
// being built: the conjunction PC ∧ Eq, its variables by name less the
// nondeterministic ones, and the class signature of each of its first limit
// models, in EnumerateConjs' order.
func refSignatures(p analyzer.Path, limit int) (vars []*sym.Expr, sigs []string, budget bool) {
	cond := sym.And(p.PC, p.Eq)
	for _, v := range sym.Vars(cond) {
		if p.VarKinds[v.Name] != symx.KindNondet {
			vars = append(vars, v)
		}
	}
	var sc sigScratch
	s := &sym.Solver{}
	s.EnumerateConjs(sym.Conjuncts(cond), func(m sym.Model) bool {
		sigs = append(sigs, string(sc.classSignature(m, vars)))
		return len(sigs) < limit
	})
	return vars, sigs, s.Budget()
}

// TestConjunctListEnumerationMatchesConjunction is the oracle for
// enumerating a path's commutativity condition as its two conjunct lists:
// on every commutative path of every pair of all four specs, classVars of
// the list is the conjunction's class variables, and the models
// EnumerateConjs hands over have, one for one, the class signatures the
// reference's models have.
func TestConjunctListEnumerationMatchesConjunction(t *testing.T) {
	if testing.Short() {
		t.Skip("full ANALYZE of every spec")
	}
	const limit = 64
	for _, name := range []string{"kv", "posix", "queue", "vm"} {
		sp, err := spec.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		ops, err := spec.OpSet(sp, "all")
		if err != nil {
			t.Fatal(err)
		}
		paths := 0
		for i, a := range ops {
			for _, b := range ops[:i+1] {
				pr, err := analyzer.AnalyzePairCtx(context.Background(), sp, b, a, analyzer.Options{})
				if err != nil {
					t.Fatal(err)
				}
				for pi, p := range pr.CommutativePaths() {
					paths++
					wantVars, want, wantBudget := refSignatures(p, limit)
					conjs := condConjs(nil, p)
					vars := classVars(nil, conjs, p.VarKinds)
					if !slices.Equal(vars, wantVars) {
						t.Fatalf("%s %s/%s path %d: class variables %v, want %v", name, b.Name, a.Name, pi, vars, wantVars)
					}
					var sc sigScratch
					var got []string
					s := &sym.Solver{}
					s.EnumerateConjs(conjs, func(m sym.Model) bool {
						got = append(got, string(sc.classSignature(m, vars)))
						return len(got) < limit
					})
					if !slices.Equal(got, want) || s.Budget() != wantBudget {
						t.Fatalf("%s %s/%s path %d: signatures %q (budget %v), want %q (budget %v)",
							name, b.Name, a.Name, pi, got, s.Budget(), want, wantBudget)
					}
				}
			}
		}
		t.Logf("%s: %d commutative paths", name, paths)
	}
}
