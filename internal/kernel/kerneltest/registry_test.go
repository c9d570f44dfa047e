package kerneltest

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/kernel"
	_ "repro/internal/kvspec" // registers the "kv" spec
	_ "repro/internal/model"  // registers the "posix" spec
	"repro/internal/mtrace"
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
		gen, ok := Gens[name]
		if !ok {
			t.Errorf("spec %s has no entry in kerneltest.Gens", name)
			continue
		}
		for _, im := range sp.Impls() {
			t.Run(name+"/"+im.Name+"/replay", func(t *testing.T) {
				replayMatchesFresh(t, im.New, gen)
			})
			t.Run(name+"/"+im.Name+"/online", func(t *testing.T) {
				onlineMatchesOracle(t, im.New, gen)
			})
		}
	}
}

// replayMatchesFresh is the setup snapshot/reset oracle: a single
// long-lived Replayer runs many randomized setup groups, and every
// CheckResult must exactly match Check, which builds two fresh kernels per
// test — and so must the ordered access log of the traced replay, cell by
// cell. Any state the memory's Reset fails to restore — a cell
// value, a stale or lost map entry, a counter — surfaces as a result
// or conflict-report mismatch in a later test or group; the log
// additionally catches what conflict reports are blind to: an extra or
// missing read, a different order, a structure built on demand by a traced
// access where the fresh kernel builds it untraced.
func replayMatchesFresh(t *testing.T, fresh func() kernel.Kernel, gen Gen) {
	t.Helper()
	r := rand.New(rand.NewSource(1))
	var repMem *mtrace.Memory
	rep := kernel.NewReplayer(Logged(fresh, func(m *mtrace.Memory) { repMem = m }))
	for group := 0; group < 60; group++ {
		setup := gen.Setup(r)
		var tests []kernel.TestCase
		for i := 0; i < 1+r.Intn(6); i++ {
			tests = append(tests, kernel.TestCase{
				ID:    "t",
				Setup: setup,
				Calls: [2]kernel.Call{gen.Call(r), gen.Call(r)},
			})
		}
		groups, err := rep.CheckTests(context.Background(), tests, func(i int, got kernel.CheckResult) {
			// Check traces on the first kernel it builds; the second only
			// re-executes in the opposite order.
			var freshMem *mtrace.Memory
			want, _ := Check(Logged(fresh, func(m *mtrace.Memory) {
				if freshMem == nil {
					freshMem = m
				}
			}), tests[i])
			if got.ConflictFree != want.ConflictFree ||
				got.Res != want.Res ||
				!reflect.DeepEqual(got.Conflicts, want.Conflicts) {
				t.Fatalf("group %d test %d (%v || %v): replayed %+v != fresh %+v",
					group, i, tests[i].Calls[0], tests[i].Calls[1], got, want)
			}
			if gotLog, wantLog := AccessLog(repMem), AccessLog(freshMem); !reflect.DeepEqual(gotLog, wantLog) {
				t.Fatalf("group %d test %d (%v || %v): replayed access log\n %v\n!= fresh\n %v",
					group, i, tests[i].Calls[0], tests[i].Calls[1], gotLog, wantLog)
			}
		})
		if err != nil || groups != 1 {
			t.Fatalf("group %d: one setup replayed as %d groups, err %v", group, groups, err)
		}
	}
}

// onlineMatchesOracle runs randomized multi-core call sequences directly
// on the kernel with the access log enabled and checks the online verdict
// against the post-hoc oracle, across several traced regions per kernel
// instance (the epoch bump must isolate regions).
func onlineMatchesOracle(t *testing.T, fresh func() kernel.Kernel, gen Gen) {
	t.Helper()
	for seed := int64(0); seed < 60; seed++ {
		r := rand.New(rand.NewSource(seed))
		k := fresh()
		m := k.Memory()
		m.LogAccesses(true)
		k.Apply(gen.Setup(r))
		for region := 0; region < 3; region++ {
			m.Start()
			for i := 0; i < r.Intn(12); i++ {
				k.Exec(r.Intn(4), gen.Call(r))
			}
			m.Stop()
			if diff := CheckOnline(m); diff != "" {
				t.Fatalf("seed %d region %d: %s", seed, region, diff)
			}
		}
	}
}

// drawTest is one random test of gen's, and whether kernel.Admit admits it.
func drawTest(r *rand.Rand, gen Gen) (kernel.TestCase, bool) {
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
				tc, ok := drawTest(r, Gens[name])
				if !ok {
					continue
				}
				admitted++
				res, _, err := OrderFree(im.New, tc)
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
			tc, ok := drawTest(rand.New(rand.NewSource(seed)), Gens[name])
			if !ok {
				continue
			}
			for _, im := range sp.Impls() {
				if _, _, err := OrderFree(im.New, tc); err != nil {
					t.Fatal(err)
				}
			}
		}
	})
}
