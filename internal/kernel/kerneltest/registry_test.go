package kerneltest_test

import (
	"math/rand"
	"testing"

	"repro/internal/kernel"
	"repro/internal/kernel/kerneltest"
	_ "repro/internal/kvspec"    // registers the "kv" spec
	_ "repro/internal/model"     // registers the "posix" spec
	_ "repro/internal/queuespec" // registers the "queue" spec
	"repro/internal/spec"
	_ "repro/internal/vmspec" // registers the "vm" spec
)

// TestRegisteredImpls runs both harnesses over every Impl of every
// registered spec, so a kernel is covered by registering it; a spec
// without a generator fails here until kerneltest.Gens gains one.
func TestRegisteredImpls(t *testing.T) {
	for _, name := range spec.Names() {
		sp, err := spec.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		gen, ok := kerneltest.Gens[name]
		if !ok {
			t.Errorf("spec %s has no entry in kerneltest.Gens", name)
			continue
		}
		for _, im := range sp.Impls() {
			t.Run(name+"/"+im.Name+"/replay", func(t *testing.T) {
				kerneltest.ReplayMatchesFresh(t, im.New, gen)
			})
			t.Run(name+"/"+im.Name+"/online", func(t *testing.T) {
				kerneltest.OnlineMatchesOracle(t, im.New, gen)
			})
		}
	}
}

// drawTest is one random test of gen's, and whether kernel.Admit admits it.
func drawTest(r *rand.Rand, gen kerneltest.Gen) (kernel.TestCase, bool) {
	tc := kernel.TestCase{ID: "random", Setup: gen.Setup(r), Calls: [2]kernel.Call{gen.Call(r), gen.Call(r)}}
	return tc, kernel.Admit(&tc) == nil
}

// TestRandomSetupsAreOrderFree holds every Impl of every registered spec to
// kerneltest.OrderFree over 20,000 random admitted tests each (2,000 under
// -short): the generated corpus reaches only the setups TESTGEN mines, and
// a kernel that reads state without a traced load shows up sooner on
// setups nobody mined.
func TestRandomSetupsAreOrderFree(t *testing.T) {
	n := 20000
	if testing.Short() {
		n = 2000
	}
	for _, name := range spec.Names() {
		sp, err := spec.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, im := range sp.Impls() {
			r := rand.New(rand.NewSource(1))
			admitted, conflictFree, violations := 0, 0, 0
			for admitted < n {
				tc, ok := drawTest(r, kerneltest.Gens[name])
				if !ok {
					continue
				}
				admitted++
				res, _, err := kerneltest.OrderFree(im.New, tc)
				if res.ConflictFree {
					conflictFree++
				}
				if err != nil {
					if violations++; violations <= 5 {
						t.Error(err)
					}
				}
			}
			t.Logf("%s/%s: %d admitted tests, %d conflict-free, %d depend on the order", name, im.Name, admitted, conflictFree, violations)
			if violations > 0 {
				t.Errorf("%s/%s: %d of %d conflict-free tests depend on the order", name, im.Name, violations, conflictFree)
			}
		}
	}
}

// FuzzOrderFree is TestRandomSetupsAreOrderFree on inputs the fuzzer
// steers: the seed draws a test of every registered spec, checked on each
// of its Impls.
func FuzzOrderFree(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		for _, name := range spec.Names() {
			sp, err := spec.Lookup(name)
			if err != nil {
				t.Fatal(err)
			}
			tc, ok := drawTest(rand.New(rand.NewSource(seed)), kerneltest.Gens[name])
			if !ok {
				continue
			}
			for _, im := range sp.Impls() {
				if _, _, err := kerneltest.OrderFree(im.New, tc); err != nil {
					t.Fatal(err)
				}
			}
		}
	})
}
