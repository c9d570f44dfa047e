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
// that decide a cell, and of the order-dependence answers `commuter
// analyze` reports beside them. For every pair of every spec, every
// question of every path — PC ∧ Eq, as ANALYZE puts it to the solver the
// pair's analysis ran on, and PC ∧ ¬c for each conjunct c of Eq, as
// CanDiverge puts it to a solver of its own — is asked as
// SatAssumingConjs over the path condition's conjuncts, answered from the
// solver's memory or by a backjumping search over the cone. It must equal
// Sat of the whole interned conjunction on a fresh Solver, which remembers
// nothing, takes no cone, and searches the whole conjunct list for a first
// model; the verdict the analysis recorded and the one CanDiverge returns must be
// those answers. No side may run out of budget.
func TestClassificationMatchesFreshEnumerate(t *testing.T) {
	if testing.Short() {
		t.Skip("analyses every pair of every spec")
	}
	for _, sp := range []spec.Spec{model.Spec, vmspec.Spec, kvspec.Spec, queuespec.Spec} {
		queries, remembered := 0, int64(0)
		for _, pair := range pairsOf(sp) {
			shared, div := &sym.Solver{}, &sym.Solver{}
			r, err := AnalyzePairCtx(context.Background(), sp, pair[0], pair[1], Options{Solver: shared})
			if err != nil {
				t.Fatal(err)
			}
			if u := r.Unknown(); u != 0 {
				t.Errorf("%s %s/%s: %d unknown paths", sp.Name(), r.OpA, r.OpB, u)
			}
			for i, p := range r.Paths {
				pc := sym.Conjuncts(p.PC)
				ask := func(on *sym.Solver, q *sym.Expr) bool {
					queries++
					got := on.SatAssumingConjs(pc, q)
					var fresh sym.Solver
					want := fresh.Sat(sym.And(p.PC, q))
					if got != want || on.Budget() || fresh.Budget() {
						t.Errorf("%s %s/%s path %d: shared solver %v (budget %v), fresh Sat %v (budget %v)\nPC: %v\nquestion: %v",
							sp.Name(), r.OpA, r.OpB, i, got, on.Budget(), want, fresh.Budget(), p.PC, q)
					}
					return want
				}
				commutes, diverges := ask(shared, p.Eq), false
				for _, c := range sym.Conjuncts(p.Eq) {
					if ask(div, sym.Not(c)) {
						diverges = true
					}
				}
				got, unknown := canDiverge(div, p)
				if p.Commutes != commutes || got != diverges || unknown {
					t.Errorf("%s %s/%s path %d: recorded commutes=%v, CanDiverge %v (unknown %v), oracle %v/%v",
						sp.Name(), r.OpA, r.OpB, i, p.Commutes, got, unknown, commutes, diverges)
				}
			}
			remembered += shared.Stats().MemoHits + div.Stats().MemoHits
		}
		t.Logf("%s: %d questions, %d answers remembered", sp.Name(), queries, remembered)
	}
}

// TestAnalyzeAsksOnlyTheCommuteQuestion pins what ANALYZE costs TESTGEN's
// contract: over the 45 fs pairs on one counting solver, every question —
// searched or remembered — is an exploration branch or a path's one
// PC ∧ Eq. The commit that still decided PC ∧ ¬c per conjunct of Eq in
// the analysis asked parentQuestions.
func TestAnalyzeAsksOnlyTheCommuteQuestion(t *testing.T) {
	const questions, parentQuestions = 8699, 11204
	ops, err := spec.OpSet(model.Spec, "fs")
	if err != nil {
		t.Fatal(err)
	}
	solver := &sym.Solver{}
	for i, a := range ops {
		for _, b := range ops[:i+1] {
			if _, err := AnalyzePairCtx(context.Background(), model.Spec, b, a, Options{Solver: solver}); err != nil {
				t.Fatal(err)
			}
		}
	}
	st := solver.Stats()
	if got := st.SatCalls + st.MemoHits; got > questions || questions >= parentQuestions {
		t.Errorf("ANALYZE of the fs pairs asked %d questions (%d searched, %d remembered), want at most %d, below the parent's %d",
			got, st.SatCalls, st.MemoHits, questions, parentQuestions)
	}
}

// TestSwappedPairAgrees is the count form of ANALYZE's swap relation: a
// pair's commutativity does not depend on which operation is named first,
// so for every pair a≠b of every spec, (a, b) and (b, a) must report the
// same number of paths, of commutative paths and of unknown paths. A pair
// that fails is a witness of the analysis depending on slot order; it is
// to be recorded and explained, not excused here.
func TestSwappedPairAgrees(t *testing.T) {
	for _, sp := range []spec.Spec{model.Spec, vmspec.Spec, kvspec.Spec, queuespec.Spec} {
		for _, pair := range pairsOf(sp) {
			a, b := pair[0], pair[1]
			if a == b {
				continue
			}
			ab, err := AnalyzePairCtx(context.Background(), sp, a, b, Options{})
			if err != nil {
				t.Fatal(err)
			}
			ba, err := AnalyzePairCtx(context.Background(), sp, b, a, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if len(ab.Paths) != len(ba.Paths) || len(ab.CommutativePaths()) != len(ba.CommutativePaths()) || ab.Unknown() != ba.Unknown() {
				t.Errorf("%s: %s x %s has %d paths, %d commutative, %d unknown; %s x %s has %d, %d, %d", sp.Name(),
					a.Name, b.Name, len(ab.Paths), len(ab.CommutativePaths()), ab.Unknown(),
					b.Name, a.Name, len(ba.Paths), len(ba.CommutativePaths()), ba.Unknown())
			}
		}
	}
}
