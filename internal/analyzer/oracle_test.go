package analyzer

import (
	"context"
	"testing"

	"repro/internal/kvspec"
	"repro/internal/model"
	"repro/internal/queuespec"
	"repro/internal/spec"
	"repro/internal/sym"
	"repro/internal/vmspec"
)

// TestClassificationMatchesFreshEnumerate is the oracle of the answers
// that decide a cell. For every pair of every spec, every classification
// question of every path — PC ∧ Eq, and PC ∧ ¬c for each conjunct c of
// Eq — is put to the solver the pair's analysis ran on, as ANALYZE puts
// it: SatAssumingConjs over the path condition's conjuncts, answered from
// the solver's memory or by a backjumping search over the cone. It must
// equal Sat of the whole interned conjunction on a fresh Solver, which
// remembers nothing, takes no cone, and goes through Enumerate to a first
// model; and the verdicts the analysis recorded must be those answers.
// Neither side may run out of budget.
func TestClassificationMatchesFreshEnumerate(t *testing.T) {
	if testing.Short() {
		t.Skip("analyses every pair of every spec")
	}
	for _, sp := range []spec.Spec{model.Spec, vmspec.Spec, kvspec.Spec, queuespec.Spec} {
		queries, remembered := 0, int64(0)
		for _, pair := range pairsOf(sp) {
			shared := &sym.Solver{}
			r, err := AnalyzePairCtx(context.Background(), sp, pair[0], pair[1], Options{Solver: shared})
			if err != nil {
				t.Fatal(err)
			}
			if u := r.Unknown(); u != 0 {
				t.Errorf("%s %s/%s: %d unknown paths", sp.Name(), r.OpA, r.OpB, u)
			}
			for i, p := range r.Paths {
				pc := sym.Conjuncts(p.PC)
				ask := func(q *sym.Expr) bool {
					queries++
					got := shared.SatAssumingConjs(pc, q)
					var fresh sym.Solver
					want := fresh.Sat(sym.And(p.PC, q))
					if got != want || shared.Budget() || fresh.Budget() {
						t.Errorf("%s %s/%s path %d: shared solver %v (budget %v), fresh Sat %v (budget %v)\nPC: %v\nquestion: %v",
							sp.Name(), r.OpA, r.OpB, i, got, shared.Budget(), want, fresh.Budget(), p.PC, q)
					}
					return want
				}
				commutes, diverges := ask(p.Eq), false
				for _, c := range sym.Conjuncts(p.Eq) {
					if ask(sym.Not(c)) {
						diverges = true
					}
				}
				if p.Commutes != commutes || p.CanDiverge != diverges {
					t.Errorf("%s %s/%s path %d: recorded commutes=%v diverges=%v, oracle %v/%v",
						sp.Name(), r.OpA, r.OpB, i, p.Commutes, p.CanDiverge, commutes, diverges)
				}
			}
			remembered += shared.Stats().MemoHits
		}
		t.Logf("%s: %d questions, %d answers remembered", sp.Name(), queries, remembered)
	}
}
