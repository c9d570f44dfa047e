package testgen

import (
	"context"
	"testing"

	"repro/internal/analyzer"
	"repro/internal/kernel"
	"repro/internal/kernel/kerneltest"
	"repro/internal/spec"
)

// TestConflictFreeIsOrderFree is an oracle for what MTRACE cannot see, over
// every generated test of all four specs, posix under both FD rules, on
// every registered Impl: kerneltest.OrderFree, so a test kerneltest.Check
// calls conflict-free must give the same results with its calls in the
// other order. kerneltest's TestRandomSetupsAreOrderFree holds the kernels
// to the same over random setups. Under the lowest-FD rule it also holds the
// kernels to the spec's descriptor table: no open or pipe, in either
// order, returns a descriptor at or past kernel.MaxFD.
func TestConflictFreeIsOrderFree(t *testing.T) {
	if testing.Short() {
		t.Skip("full ANALYZE+TESTGEN of every spec")
	}
	for _, u := range []struct {
		spec string
		cfg  spec.Config
	}{
		{"kv", spec.Config{}},
		{"posix", spec.Config{}},
		{"posix", spec.Config{LowestFD: true}},
		{"queue", spec.Config{}},
		{"vm", spec.Config{}},
	} {
		sp, err := spec.Lookup(u.spec)
		if err != nil {
			t.Fatal(err)
		}
		ops := sp.Ops()
		impls := sp.Impls()
		tests, conflictFree := 0, make([]int, len(impls))
		for i, a := range ops {
			for _, b := range ops[:i+1] {
				pr, err := analyzer.AnalyzePairCtx(context.Background(), sp, b, a, analyzer.Options{Config: u.cfg})
				if err != nil {
					t.Fatal(err)
				}
				generated, _ := GenerateChecked(sp, pr, Options{})
				for _, tc := range generated {
					for j, im := range impls {
						res, swapped, err := kerneltest.OrderFree(im.New, tc)
						if res.ConflictFree {
							conflictFree[j]++
						}
						if err != nil {
							t.Errorf("%s lowestfd=%t: %v", u.spec, u.cfg.LowestFD, err)
						}
						if u.cfg.LowestFD {
							for ci, c := range tc.Calls {
								for _, r := range []kernel.Result{res.Res[ci], swapped[ci]} {
									if fdPastTable(c.Op, r) {
										t.Errorf("%s %s: %s returns %v, past the spec's %d descriptors",
											im.Name, tc.ID, c, r, kernel.MaxFD)
									}
								}
							}
						}
					}
				}
				tests += len(generated)
			}
		}
		for j, im := range impls {
			t.Logf("%s lowestfd=%t %s: %d tests, %d conflict-free", u.spec, u.cfg.LowestFD, im.Name, tests, conflictFree[j])
		}
	}
}

// fdPastTable reports whether r, the result of an op, is a descriptor an
// open or pipe returned at or past kernel.MaxFD.
func fdPastTable(op string, r kernel.Result) bool {
	switch op {
	case "open":
		return r.Code >= kernel.MaxFD
	case "pipe":
		return r.Code == 0 && (r.V1 >= kernel.MaxFD || r.V2 >= kernel.MaxFD)
	}
	return false
}
