package vmspec

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

// TestNonOverlappingOpsCommute pins the first half of the §5.2 result:
// every pair of VM operations admits a commutative execution, because
// the witness can always place them on non-overlapping regions (different
// pages or different processes).
func TestNonOverlappingOpsCommute(t *testing.T) {
	for _, pair := range [][2]string{
		{"mmap", "mmap"},
		{"mmap", "munmap"},
		{"munmap", "munmap"},
		{"munmap", "memread"},
		{"mprotect", "memwrite"},
		{"memread", "memwrite"},
		{"memwrite", "memwrite"},
	} {
		r := analyze(t, pair[0], pair[1])
		nc, _ := counts(r)
		if r.Unknown() > 0 {
			t.Fatalf("%s x %s: solver budget hit", pair[0], pair[1])
		}
		if nc == 0 {
			t.Errorf("%s x %s: no commutative path (non-overlapping regions should commute)", pair[0], pair[1])
		}
	}
}

// TestAddressSelectionDoesNotCommute pins the second half: pairs whose
// order is observable through the kernel's address choice or through
// overlapping regions have divergent paths. Two non-MAP_FIXED mmaps in
// one process get swapped addresses across the two orders (the
// lowest-address analog of the lowest-FD rule), and an munmap that frees
// a low page changes what a following non-fixed mmap returns.
func TestAddressSelectionDoesNotCommute(t *testing.T) {
	for _, pair := range [][2]string{
		{"mmap", "mmap"},
		{"mmap", "munmap"},
		{"munmap", "memread"},
		{"memread", "memwrite"},
	} {
		r := analyze(t, pair[0], pair[1])
		_, nd := counts(r)
		if nd == 0 {
			t.Errorf("%s x %s: no divergent path (overlap/address selection should order-distinguish)", pair[0], pair[1])
		}
	}
}

// TestMemreadsAlwaysCommute: reads never write state, so two memreads
// admit no divergent path at all.
func TestMemreadsAlwaysCommute(t *testing.T) {
	r := analyze(t, "memread", "memread")
	nc, nd := counts(r)
	if r.Unknown() > 0 {
		t.Fatal("memread x memread: solver budget hit")
	}
	if nc == 0 {
		t.Error("memread x memread: no commutative path")
	}
	if nd != 0 {
		t.Errorf("memread x memread: %d divergent paths, want 0", nd)
	}
}

// TestVMSweep is the end-to-end acceptance: the full vm sweep on the
// memvm reference implementation produces both commuting and
// never-commuting cells, and the commutative tests that place their
// calls on non-overlapping (proc, page) regions run conflict-free —
// the RadixVM design point the kernel mirrors.
func TestVMSweep(t *testing.T) {
	impls := Spec.Impls()
	if len(impls) != 1 || impls[0].Name != "memvm" {
		t.Fatalf("vm impls = %+v, want memvm", impls)
	}
	res, err := sweep.RunContext(context.Background(), sweep.Config{
		Spec:    Spec,
		Ops:     Spec.Ops(),
		Kernels: []sweep.KernelSpec{{Name: impls[0].Name, New: impls[0].New}},
	})
	if err != nil {
		t.Fatal(err)
	}
	tested, empty, conflictFree := 0, 0, 0
	for _, p := range res.Pairs {
		if p.Unknown > 0 {
			t.Errorf("%s: solver budget hit", p.Pair())
		}
		if p.Tests > 0 {
			tested++
		} else {
			empty++
		}
		for _, c := range p.Cells {
			if c.Total > 0 && c.Conflicts < c.Total {
				conflictFree++
			}
		}
	}
	if tested == 0 {
		t.Fatal("vm sweep generated no tests")
	}
	if conflictFree == 0 {
		t.Error("no pair had a conflict-free test on memvm")
	}
	t.Logf("vm sweep: %d pairs with tests, %d without, %d cells with conflict-free tests",
		tested, empty, conflictFree)
}

// TestDisjointRegionTestsConflictFree checks the implementation half of
// the rule on the sharpest pair: every generated memread/memwrite test
// whose calls touch different (proc, page) locations must be
// conflict-free on memvm (per-page cells, no shared structure).
func TestDisjointRegionTestsConflictFree(t *testing.T) {
	r := analyze(t, "memread", "memwrite")
	tests := generate(r)
	if len(tests) == 0 {
		t.Fatal("no tests for memread x memwrite")
	}
	disjoint := 0
	for _, tc := range tests {
		a, b := tc.Calls[0], tc.Calls[1]
		if a.Proc == b.Proc && a.Arg("page") == b.Arg("page") {
			continue
		}
		disjoint++
		res := kerneltest.Check(Spec.Impls()[0].New, tc)
		if !res.ConflictFree {
			names := make([]string, len(res.Conflicts))
			for i, c := range res.Conflicts {
				names[i] = c.CellName
			}
			t.Errorf("%s (%v / %v): conflicts on %v", tc.ID, a, b, names)
		}
		if !res.Commuted {
			t.Errorf("%s: results did not commute on memvm: %v vs %v", tc.ID, res.Res, res.ResSwapped)
		}
	}
	if disjoint == 0 {
		t.Fatal("no generated test places the calls on disjoint regions")
	}
}

// TestGenerateVMTests pins the concretizer: commutative memread/memwrite
// tests must seed the mapped pages the witness probed (anonymous VMAs
// with the probed permission), and a successful memread must observe the
// seeded content.
func TestGenerateVMTests(t *testing.T) {
	r := analyze(t, "memread", "memwrite")
	tests := generate(r)
	seeded := false
	for _, tc := range tests {
		for _, v := range tc.Setup.VMAs {
			if !v.Anon {
				t.Errorf("%s: non-anonymous setup VMA %+v", tc.ID, v)
			}
			if v.Page < 0 || v.Page >= MaxPage {
				t.Errorf("%s: setup page %d out of range", tc.ID, v.Page)
			}
			seeded = true
		}
		if tc.Calls[0].Op != "memread" || tc.Calls[1].Op != "memwrite" {
			t.Errorf("%s: calls %v", tc.ID, tc.Calls)
		}
	}
	if !seeded {
		t.Error("no generated test seeds a mapped page")
	}
}
