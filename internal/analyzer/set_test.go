package analyzer

import (
	"testing"

	"repro/internal/model"
	"repro/internal/sym"
)

func analyzeSet(t *testing.T, names []string, opt Options) SetResult {
	t.Helper()
	var ops []*model.OpDef
	for _, n := range names {
		op := model.OpByName(n)
		if op == nil {
			t.Fatalf("unknown op %s", n)
		}
		ops = append(ops, op)
	}
	return AnalyzeSet(model.Spec, ops, opt)
}

func TestPermutationsAndSubsets(t *testing.T) {
	if got := len(permutations(3)); got != 6 {
		t.Errorf("3! = %d", got)
	}
	// Proper subsets of size >= 2 of a 3-set: the three pairs.
	subs := subsets(3)
	if len(subs) != 3 {
		t.Errorf("subsets(3) = %v", subs)
	}
	if got := len(subsets(2)); got != 0 {
		t.Errorf("a pair has no proper subsets of size >= 2, got %d", got)
	}
}

// Three stats always commute — read-only at any state.
func TestTripleStatCommutes(t *testing.T) {
	r := analyzeSet(t, []string{"stat", "stat", "stat"}, Options{})
	if len(r.Paths) == 0 {
		t.Fatal("no paths")
	}
	for i, p := range r.Paths {
		if p.CanDiverge {
			t.Errorf("path %d of stat^3 can diverge under %v", i, p.PC)
		}
	}
}

// Three unlinks of pairwise distinct names commute; a shared name makes
// order observable (one call wins, the others fail).
func TestTripleUnlinkClasses(t *testing.T) {
	r := analyzeSet(t, []string{"unlink", "unlink", "unlink"}, Options{})
	a := sym.Var("unlink.0.fname", model.FilenameSort)
	b := sym.Var("unlink.1.fname", model.FilenameSort)
	c := sym.Var("unlink.2.fname", model.FilenameSort)
	allDiff := sym.And(sym.Ne(a, b), sym.Ne(b, c), sym.Ne(a, c))
	var s sym.Solver
	foundDistinct := false
	for _, p := range r.CommutativePaths() {
		if s.Sat(sym.And(p.CommuteCond, allDiff)) {
			foundDistinct = true
			break
		}
	}
	if !foundDistinct {
		t.Error("three unlinks of distinct names should commute")
	}
	exists := sym.Var("fname[unlink.0.fname].present", sym.BoolSort)
	sameAB := sym.And(sym.Eq(a, b), sym.Ne(a, c), exists)
	for _, p := range r.CommutativePaths() {
		if s.Sat(sym.And(p.CommuteCond, sameAB)) {
			t.Errorf("unlinks of one existing name must not commute (one wins); pc=%v", p.PC)
			break
		}
	}
}

// The intermediate-state requirement at work: link(a,b); unlink(b);
// stat(b). All full permutations placing stat(b) appropriately could agree
// on final state, but the pair subsets {link, unlink} and {unlink, stat}
// expose order dependence — the set must not commute when all three names
// alias and the file exists.
func TestTripleIntermediateStates(t *testing.T) {
	r := analyzeSet(t, []string{"link", "unlink", "stat"}, Options{})
	old := sym.Var("link.0.old", model.FilenameSort)
	nw := sym.Var("link.0.new", model.FilenameSort)
	victim := sym.Var("unlink.1.fname", model.FilenameSort)
	statName := sym.Var("stat.2.fname", model.FilenameSort)
	oldExists := sym.Var("fname[link.0.old].present", sym.BoolSort)

	situation := sym.And(oldExists, sym.Eq(nw, victim), sym.Eq(victim, statName), sym.Ne(old, nw))
	var s sym.Solver
	for _, p := range r.CommutativePaths() {
		if s.Sat(sym.And(p.CommuteCond, situation)) {
			t.Error("link(a,b) / unlink(b) / stat(b) must not commute when b aliases")
			break
		}
	}

	// With all four names distinct and present as needed, the triple
	// commutes.
	disjoint := sym.And(oldExists,
		sym.Ne(old, nw), sym.Ne(old, victim), sym.Ne(old, statName),
		sym.Ne(nw, victim), sym.Ne(nw, statName), sym.Ne(victim, statName))
	found := false
	for _, p := range r.CommutativePaths() {
		if s.Sat(sym.And(p.CommuteCond, disjoint)) {
			found = true
			break
		}
	}
	if !found {
		t.Error("disjoint link/unlink/stat should commute")
	}
}

func TestSetSummary(t *testing.T) {
	r := analyzeSet(t, []string{"close", "close"}, Options{})
	if r.Summary() == "" || len(r.Ops) != 2 {
		t.Errorf("summary %q ops %v", r.Summary(), r.Ops)
	}
	// Pair analysis via AnalyzeSet must agree with AnalyzePairCtx on
	// commutativity structure (same model, same condition).
	pr := analyze(t, "close", "close", Options{})
	setCommutes, pairCommutes := 0, 0
	for _, p := range r.Paths {
		if p.Commutes {
			setCommutes++
		}
	}
	for _, p := range pr.Paths {
		if p.Commutes {
			pairCommutes++
		}
	}
	if (setCommutes == 0) != (pairCommutes == 0) {
		t.Errorf("AnalyzeSet (%d commutative) disagrees with AnalyzePairCtx (%d)",
			setCommutes, pairCommutes)
	}
}
