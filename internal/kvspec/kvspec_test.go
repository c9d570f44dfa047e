package kvspec

import (
	"context"
	"testing"

	"repro/internal/analyzer"
	"repro/internal/kernel"
	"repro/internal/kernel/kerneltest"
	"repro/internal/spec"
	"repro/internal/sweep"
	"repro/internal/testgen"
)

func analyze(t *testing.T, a, b string) analyzer.PairResult {
	t.Helper()
	opA, err := spec.OpByName(Spec, a)
	if err != nil {
		t.Fatal(err)
	}
	opB, err := spec.OpByName(Spec, b)
	if err != nil {
		t.Fatal(err)
	}
	r, err := analyzer.AnalyzePairCtx(context.Background(), Spec, opA, opB, analyzer.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// generate is the pair's test set; these pairs fit the default budget, so
// the truncation count is not of interest.
func generate(r analyzer.PairResult) []kernel.TestCase {
	tests, _ := testgen.GenerateChecked(Spec, r, testgen.Options{})
	return tests
}

func counts(r analyzer.PairResult) (commute, diverge int) {
	diverges, _ := analyzer.CanDiverge(context.Background(), r)
	for i, p := range r.Paths {
		if p.Commutes {
			commute++
		}
		if diverges[i] {
			diverge++
		}
	}
	return
}

// TestDistinctKeyPointOpsCommute pins the point-operation half of the kv
// structure: every point-op pair admits a commutative execution, because
// the witness can place the calls on distinct keys (or make the mutation
// a no-op rewrite).
func TestDistinctKeyPointOpsCommute(t *testing.T) {
	for _, pair := range [][2]string{
		{"get", "get"},
		{"get", "put"},
		{"get", "delete"},
		{"put", "put"},
		{"put", "delete"},
		{"delete", "delete"},
	} {
		r := analyze(t, pair[0], pair[1])
		nc, _ := counts(r)
		if r.Unknown() > 0 {
			t.Fatalf("%s x %s: solver budget hit", pair[0], pair[1])
		}
		if nc == 0 {
			t.Errorf("%s x %s: no commutative path (distinct keys should commute)", pair[0], pair[1])
		}
	}
}

// TestSameKeyMutationsDiverge pins the same-key structure: mutating pairs
// on one key are order-observable (last writer wins; the second delete
// returns ENOENT like unlink of a missing name).
func TestSameKeyMutationsDiverge(t *testing.T) {
	for _, pair := range [][2]string{
		{"get", "put"},
		{"put", "put"},
		{"put", "delete"},
		{"delete", "delete"},
	} {
		r := analyze(t, pair[0], pair[1])
		_, nd := counts(r)
		if nd == 0 {
			t.Errorf("%s x %s: no divergent path (same-key mutation should order-distinguish)", pair[0], pair[1])
		}
	}
}

// TestScanConflictsWithRangeMutations pins the range half: a scan
// commutes with mutations outside its window and with rewrites of the
// value already stored, but an insert/change/removal inside [lo, hi] is
// observable in the scan's result across orders.
func TestScanConflictsWithRangeMutations(t *testing.T) {
	for _, pair := range [][2]string{
		{"put", "scan"},
		{"delete", "scan"},
	} {
		r := analyze(t, pair[0], pair[1])
		nc, nd := counts(r)
		if r.Unknown() > 0 {
			t.Fatalf("%s x %s: solver budget hit", pair[0], pair[1])
		}
		if nc == 0 {
			t.Errorf("%s x %s: no commutative path (out-of-range mutations should commute)", pair[0], pair[1])
		}
		if nd == 0 {
			t.Errorf("%s x %s: no divergent path (in-range mutations should order-distinguish)", pair[0], pair[1])
		}
	}

	// Pure readers never diverge.
	for _, pair := range [][2]string{
		{"get", "scan"},
		{"scan", "scan"},
	} {
		r := analyze(t, pair[0], pair[1])
		nc, nd := counts(r)
		if nc == 0 {
			t.Errorf("%s x %s: no commutative path", pair[0], pair[1])
		}
		if nd != 0 {
			t.Errorf("%s x %s: %d divergent paths, want 0 (reads cannot order-distinguish)",
				pair[0], pair[1], nd)
		}
	}
}

// TestKVSweep is the end-to-end acceptance: the full kv sweep on the
// memkv reference implementation produces tests for every pair (every kv
// pair has commutative executions) and a healthy share of them run
// conflict-free (the per-key-cell design realizes distinct-key and
// out-of-range commutativity).
func TestKVSweep(t *testing.T) {
	impls := Spec.Impls()
	if len(impls) != 1 || impls[0].Name != "memkv" {
		t.Fatalf("kv impls = %+v, want memkv", impls)
	}
	res, err := sweep.RunContext(context.Background(), sweep.Config{
		Spec:    Spec,
		Ops:     Spec.Ops(),
		Kernels: []sweep.KernelSpec{{Name: impls[0].Name, New: impls[0].New}},
	})
	if err != nil {
		t.Fatal(err)
	}
	total, conflictFree := 0, 0
	for _, p := range res.Pairs {
		if p.Unknown > 0 {
			t.Errorf("%s: solver budget hit", p.Pair())
		}
		if p.Tests == 0 {
			t.Errorf("%s: no tests (every kv pair has commutative paths)", p.Pair())
		}
		for _, c := range p.Cells {
			total += c.Total
			conflictFree += c.Total - c.Conflicts
		}
	}
	if total == 0 {
		t.Fatal("kv sweep generated no tests")
	}
	if conflictFree == 0 {
		t.Error("no generated test ran conflict-free on memkv")
	}
	t.Logf("kv sweep: %d tests, %d conflict-free", total, conflictFree)
}

// TestDisjointKeyTestsConflictFree checks the implementation half of the
// rule where it must be exact: every generated test of a point-op pair
// whose calls name distinct keys, and every put/scan test whose put lands
// outside the scanned window, must be conflict-free on memkv.
func TestDisjointKeyTestsConflictFree(t *testing.T) {
	r := analyze(t, "put", "put")
	for _, tc := range generate(r) {
		if tc.Calls[0].Arg("key") == tc.Calls[1].Arg("key") {
			continue
		}
		checkFree(t, tc)
	}

	r = analyze(t, "put", "scan")
	found := false
	for _, tc := range generate(r) {
		put, scan := tc.Calls[0], tc.Calls[1]
		key := put.Arg("key")
		if scan.Arg("lo") <= key && key <= scan.Arg("hi") {
			continue
		}
		found = true
		checkFree(t, tc)
	}
	if !found {
		t.Error("no generated put/scan test puts outside the scanned window")
	}
}

func checkFree(t *testing.T, tc kernel.TestCase) {
	t.Helper()
	res := kerneltest.Check(Spec.Impls()[0].New, tc)
	if !res.ConflictFree {
		names := make([]string, len(res.Conflicts))
		for i, c := range res.Conflicts {
			names[i] = c.CellName
		}
		t.Errorf("%s (%v / %v): conflicts on %v", tc.ID, tc.Calls[0], tc.Calls[1], names)
	}
	if !res.Commuted {
		t.Errorf("%s: results did not commute on memkv: %v vs %v", tc.ID, res.Res, res.ResSwapped)
	}
}

// TestGenerateKVTests pins the concretizer: commutative get/put tests
// must seed the bindings the witness probed, within bounds and sorted by
// key.
func TestGenerateKVTests(t *testing.T) {
	r := analyze(t, "get", "put")
	tests := generate(r)
	if len(tests) == 0 {
		t.Fatal("no tests for get x put")
	}
	seeded := false
	for _, tc := range tests {
		for i, kv := range tc.Setup.KVs {
			if kv.Key < 0 || kv.Key >= NKeys || kv.Val < 0 || kv.Val > MaxVal {
				t.Errorf("%s: setup binding %+v out of bounds", tc.ID, kv)
			}
			if i > 0 && tc.Setup.KVs[i-1].Key >= kv.Key {
				t.Errorf("%s: setup bindings not sorted: %+v", tc.ID, tc.Setup.KVs)
			}
			seeded = true
		}
		if tc.Calls[0].Op != "get" || tc.Calls[1].Op != "put" {
			t.Errorf("%s: calls %v", tc.ID, tc.Calls)
		}
	}
	if !seeded {
		t.Error("no generated test seeds a binding")
	}
}
