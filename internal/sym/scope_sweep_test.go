package sym_test

import (
	"context"
	"testing"

	"repro/commuter"
	"repro/internal/analyzer"
	"repro/internal/model"
	"repro/internal/spec"
	"repro/internal/sym"
	"repro/internal/testgen"
)

// TestPairScopeMissesRepeat: a pair's ANALYZE and TESTGEN, run on a Solver
// that forgets before each run the way a sweep worker's does, make the same
// nodes every time — the same intern misses and hits, run after run, on the
// reused Solver and on a fresh one alike — and, once the first run has met
// the pair's constants, add nothing to the base table.
func TestPairScopeMissesRepeat(t *testing.T) {
	rename, err := spec.OpByName(model.Spec, "rename")
	if err != nil {
		t.Fatal(err)
	}
	run := func(s *sym.Solver) (hits, misses uint64, baseGrew int) {
		s.Forget()
		h0, m0 := sym.InternStats()
		n0 := sym.InternSize()
		pr, err := analyzer.AnalyzePairCtx(context.Background(), model.Spec, rename, rename, analyzer.Options{Solver: s})
		if err != nil {
			t.Fatal(err)
		}
		if tests, _ := testgen.GenerateChecked(model.Spec, pr, testgen.Options{Solver: s}); len(tests) == 0 {
			t.Fatal("rename,rename generated no tests")
		}
		h1, m1 := sym.InternStats()
		return h1 - h0, m1 - m0, sym.InternSize() - n0
	}
	var worker sym.Solver
	run(&worker) // meets the pair's constants
	h, m, grew := run(&worker)
	if m == 0 || h == 0 || grew != 0 {
		t.Fatalf("second run: %d hits, %d misses, base table grew by %d", h, m, grew)
	}
	for i, s := range []*sym.Solver{&worker, &worker, {}} {
		if hi, mi, gi := run(s); hi != h || mi != m || gi != 0 {
			t.Errorf("run %d: %d hits, %d misses, base grew by %d; the second run had %d, %d, 0", i+3, hi, mi, gi, h, m)
		}
	}
	t.Logf("rename,rename: %d misses, %d hits a run", m, h)
}

// TestBaseTableHoldsConstantsAndStopsGrowing: the base table, the one
// table every scope shares, holds constants only, and a process that has
// run a full sweep of every spec adds nothing to it by sweeping again.
func TestBaseTableHoldsConstantsAndStopsGrowing(t *testing.T) {
	if testing.Short() {
		t.Skip("three full sweeps")
	}
	sweepAll := func() {
		for _, name := range commuter.Specs() {
			if _, err := commuter.Local().Sweep(context.Background(), commuter.WithSpec(name), commuter.WithOpSet("all")); err != nil {
				t.Fatal(err)
			}
		}
	}
	sweepAll()
	first := sym.InternSize()
	for round := 2; round <= 3; round++ {
		sweepAll()
		if n := sym.InternSize(); n != first {
			t.Errorf("round %d: the base table holds %d constants, after the first sweep %d", round, n, first)
		}
	}
	nodes := sym.BaseNodes()
	if len(nodes) != sym.InternSize() {
		t.Errorf("InternSize %d, the base table holds %d nodes", sym.InternSize(), len(nodes))
	}
	for _, e := range nodes {
		if !e.IsConst() || len(sym.Vars(e)) != 0 {
			t.Errorf("the base table holds %v, not a constant", e)
		}
	}
	t.Logf("%d constants after the first sweep", first)
}
