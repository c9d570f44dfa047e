package analyzer

import (
	"context"
	"errors"
	"testing"

	"repro/internal/kvspec"
	"repro/internal/model"
	"repro/internal/queuespec"
	"repro/internal/spec"
	"repro/internal/sym"
	"repro/internal/vmspec"
)

func analyzeSet(t *testing.T, names []string, opt Options) SetResult {
	t.Helper()
	var ops []*spec.Op
	for _, n := range names {
		ops = append(ops, opOf(t, n))
	}
	r, err := AnalyzeSetCtx(context.Background(), model.Spec, ops, opt)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestPermutationsAndSubsets(t *testing.T) {
	if got := len(permutations([]int{0, 1, 2})); got != 6 {
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
		if d, u := canDiverge(&sym.Solver{}, p); d || u {
			t.Errorf("path %d of stat^3 can diverge (%v, unknown %v) under %v", i, d, u, p.PC)
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
}

// TestSetAgreesWithPair pins that a pair is a set of two: over every pair
// of every registered spec, AnalyzeSetCtx and AnalyzePairCtx report the
// same paths in the same order with the same verdicts. Conditions are
// hash-consed, so pointer equality is structural equality.
func TestSetAgreesWithPair(t *testing.T) {
	universes := []struct {
		sp  spec.Spec
		sel string
	}{{kvspec.Spec, "all"}, {queuespec.Spec, "all"}, {vmspec.Spec, "all"}, {model.Spec, "fs"}}
	for _, u := range universes {
		if u.sel == "fs" && testing.Short() {
			continue
		}
		ops, err := spec.OpSet(u.sp, u.sel)
		if err != nil {
			t.Fatal(err)
		}
		for i, a := range ops {
			for _, b := range ops[:i+1] {
				name := u.sp.Name() + " " + b.Name + "/" + a.Name
				set, err := AnalyzeSetCtx(context.Background(), u.sp, []*spec.Op{b, a}, Options{})
				if err != nil {
					t.Fatal(err)
				}
				pair, err := AnalyzePairCtx(context.Background(), u.sp, b, a, Options{})
				if err != nil {
					t.Fatal(err)
				}
				if len(set.Paths) != len(pair.Paths) || set.Budgeted != pair.Budgeted {
					t.Errorf("%s: set has %d paths (budgeted %v), pair %d (%v)",
						name, len(set.Paths), set.Budgeted, len(pair.Paths), pair.Budgeted)
					continue
				}
				for pi, sp := range set.Paths {
					pp := pair.Paths[pi]
					if sp.CommuteCond != pp.CommuteCond {
						t.Errorf("%s path %d: conditions differ:\n set  %v\n pair %v", name, pi, sp.CommuteCond, pp.CommuteCond)
					}
					// The divergence answer is a function of PC and Eq.
					if sp.Commutes != pp.Commutes || sp.PC != pp.PC || sp.Eq != pp.Eq || sp.Unknown != pp.Unknown {
						t.Errorf("%s path %d: verdicts differ: set %v/%v, pair %v/%v\n set  PC %v Eq %v\n pair PC %v Eq %v", name, pi,
							sp.Commutes, sp.Unknown, pp.Commutes, pp.Unknown, sp.PC, sp.Eq, pp.PC, pp.Eq)
					}
				}
			}
		}
	}
}

// TestAnalyzeSetCtxCancel pins the cancellation contract of cancel_test.go
// for sets, at every point the analysis polls its context: before
// exploration, between replays, between classifications and after the last
// one. Each must return the context's error and a zero result.
func TestAnalyzeSetCtxCancel(t *testing.T) {
	ops := []*spec.Op{opOf(t, "close"), opOf(t, "close"), opOf(t, "stat")}
	// A caller-owned solver keeps the Stop hook (and its polls) out of the
	// count, so every poll is one of the analysis's own stopping points.
	count := &trippingContext{Context: context.Background(), trip: 1 << 30}
	want, err := AnalyzeSetCtx(count, model.Spec, ops, Options{Solver: &sym.Solver{}})
	if err != nil || len(want.Paths) < 2 {
		t.Fatalf("uncancelled analysis: %d paths, err %v", len(want.Paths), err)
	}
	// One poll per replay, one per classified path, one final.
	if count.polls <= len(want.Paths)+1 {
		t.Fatalf("analysis polled its context %d times for %d paths", count.polls, len(want.Paths))
	}
	for trip := 0; trip < count.polls; trip++ {
		ctx := &trippingContext{Context: context.Background(), trip: trip}
		got, err := AnalyzeSetCtx(ctx, model.Spec, ops, Options{Solver: &sym.Solver{}})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled at poll %d of %d: got %v, want context.Canceled", trip, count.polls, err)
		}
		if got.Spec != "" || got.Ops != nil || got.Paths != nil || got.Budgeted {
			t.Errorf("cancelled at poll %d: non-zero result %+v", trip, got)
		}
	}
}

// trippingContext reports cancellation once its Err method has been
// consulted trip times: deterministic mid-analysis cancellation.
type trippingContext struct {
	context.Context
	polls, trip int
}

func (c *trippingContext) Err() error {
	if c.polls++; c.polls > c.trip {
		return context.Canceled
	}
	return nil
}
