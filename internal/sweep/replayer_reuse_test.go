package sweep

import (
	"context"
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/analyzer"
	"repro/internal/kernel"
	"repro/internal/kernel/kerneltest"
	"repro/internal/kernel/unix"
	"repro/internal/kvspec"
	"repro/internal/model"
	"repro/internal/mtrace"
	"repro/internal/queuespec"
	"repro/internal/spec"
	"repro/internal/testgen"
	"repro/internal/vmspec"
)

// replayed is one pair's CHECK on one Replayer, by test index: each result
// and the ordered access log of its traced run.
type replayed struct {
	res  []kernel.CheckResult
	logs [][]string
}

// replayOn runs tests on rep, whose kernel's memory mem returns; the
// kernel must log its accesses (kerneltest.Logged).
func replayOn(t *testing.T, rep *kernel.Replayer, mem func() *mtrace.Memory, tests []kernel.TestCase) replayed {
	t.Helper()
	out := replayed{res: make([]kernel.CheckResult, len(tests)), logs: make([][]string, len(tests))}
	if _, err := rep.CheckTests(context.Background(), tests, func(i int, res kernel.CheckResult) {
		out.res[i], out.logs[i] = res, kerneltest.AccessLog(mem())
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestLongLivedReplayerIsInvisible pins what lets a sweep worker keep one
// Replayer per kernel across every pair it runs: for all four specs, and
// posix under the lowest-FD rule too, every pair's tests replayed in Pairs
// order on one Replayer per implementation get exactly the verdicts a fresh
// Replayer per pair gives — results, ConflictFree and every conflict's cell
// and cores — and the same ordered access log of the traced run. State a
// pair leaves behind that a fresh kernel would not have (a stale map entry,
// a surviving sv6 inode whose radix reads absent) shows up in a later pair;
// the radix only in the log, since its extra loads and stores conflict with
// nothing. The lowest-FD corpus's opens and pipes that land on a descriptor
// their setup does not name in that process are what make lowestFD build
// slots beside the slots a setup keeps, and read those on sv6 only while
// their entries are set.
func TestLongLivedReplayerIsInvisible(t *testing.T) {
	if testing.Short() {
		t.Skip("every spec's tests in -short mode")
	}
	lowestFD := analyzer.Options{Config: spec.Config{LowestFD: true}}
	for _, c := range []struct {
		name string
		sp   spec.Spec
		opt  analyzer.Options
	}{
		{"posix", model.Spec, analyzer.Options{}},
		{"posix-lowestfd", model.Spec, lowestFD},
		{"vm", vmspec.Spec, analyzer.Options{}},
		{"kv", kvspec.Spec, analyzer.Options{}},
		{"queue", queuespec.Spec, analyzer.Options{}},
	} {
		var pairs [][]kernel.TestCase
		for _, p := range Pairs(c.sp.Ops()) {
			tests, _, err := PairTests(context.Background(), c.sp, p[0], p[1], c.opt, testgen.Options{}, new(PairResult))
			if err != nil {
				t.Fatal(err)
			}
			pairs = append(pairs, tests)
		}
		for _, im := range c.sp.Impls() {
			t.Run(c.name+"/"+im.Name, func(t *testing.T) {
				var longMem, freshMem *mtrace.Memory
				long := kernel.NewReplayer(kerneltest.Logged(im.New, func(m *mtrace.Memory) { longMem = m }))
				compared, beside := 0, 0
				for _, tests := range pairs {
					if len(tests) == 0 {
						continue
					}
					got := replayOn(t, long, func() *mtrace.Memory { return longMem }, tests)
					fresh := kernel.NewReplayer(kerneltest.Logged(im.New, func(m *mtrace.Memory) { freshMem = m }))
					want := replayOn(t, fresh, func() *mtrace.Memory { return freshMem }, tests)
					for i := range tests {
						g, w := got.res[i], want.res[i]
						if g.Res != w.Res || g.ConflictFree != w.ConflictFree || !reflect.DeepEqual(g.Conflicts, w.Conflicts) {
							t.Fatalf("test %s (%v || %v): long-lived Replayer %+v\n!= fresh %+v",
								tests[i].ID, tests[i].Calls[0], tests[i].Calls[1], g, w)
						}
						if !reflect.DeepEqual(got.logs[i], want.logs[i]) {
							t.Fatalf("test %s (%v || %v): long-lived Replayer's access log\n %v\n!= fresh\n %v",
								tests[i].ID, tests[i].Calls[0], tests[i].Calls[1], got.logs[i], want.logs[i])
						}
						if fdBesideSetup(tests[i], g.Res) {
							beside++
						}
					}
					compared += len(tests)
				}
				if compared == 0 {
					t.Fatal("no tests replayed")
				}
				if c.opt.Config.LowestFD {
					t.Logf("%d tests, %d with an open or pipe landing on a descriptor its setup does not name", compared, beside)
					if beside == 0 {
						t.Error("no open or pipe landed beside its setup's descriptors: lowestFD never builds a slot beside the kept ones")
					}
				}
			})
		}
	}
}

// fdBesideSetup reports whether one of tc's calls is an open or pipe whose
// result res names a descriptor that tc's setup does not name in the call's
// process.
func fdBesideSetup(tc kernel.TestCase, res [2]kernel.Result) bool {
	named := func(proc int, fd int64) bool {
		for _, sd := range tc.Setup.FDs {
			if sd.Proc == proc && sd.FD == fd {
				return true
			}
		}
		return false
	}
	for i, c := range tc.Calls {
		switch r := res[i]; {
		case r.Code < 0:
		case c.Op == "open":
			if !named(c.Proc, r.Code) {
				return true
			}
		case c.Op == "pipe":
			if !named(c.Proc, r.V1) || !named(c.Proc, r.V2) {
				return true
			}
		}
	}
	return false
}

// countingPosix returns both POSIX designs under names of their own (so no
// cache entry or flight of the stock kernels is shared), counting every
// kernel built.
func countingPosix(built *atomic.Int64) []KernelSpec {
	counting := func(name string, d unix.Design) KernelSpec {
		return KernelSpec{Name: "counting-" + name, New: func() kernel.Kernel {
			built.Add(1)
			return unix.New(d)
		}}
	}
	return []KernelSpec{counting("linux", unix.Linux), counting("sv6", unix.SV6)}
}

// TestSweepBuildsOneKernelPerWorker pins the engine's kernel count: a
// worker builds each kernel at its first CHECK and replays every later
// pair on it, so a sweep builds at most workers × kernels, not one per pair
// and kernel.
func TestSweepBuildsOneKernelPerWorker(t *testing.T) {
	ops := testOps(t)
	for _, workers := range []int{1, 2} {
		var built atomic.Int64
		kernels := countingPosix(&built)
		res := mustRun(t, Config{Ops: ops, Kernels: kernels, Workers: workers})
		if res.Cache.Misses() != 0 || len(res.Pairs) != 6 {
			t.Fatalf("workers=%d: %d pairs, cache %+v", workers, len(res.Pairs), res.Cache)
		}
		n, most := built.Load(), int64(workers*len(kernels))
		if workers == 1 && n != most || n < int64(len(kernels)) || n > most {
			t.Errorf("workers=%d: %d kernels built for %d pairs, want at most %d", workers, n, len(res.Pairs), most)
		}
	}
}

// TestWorkerReplayerDroppedAfterError pins the other half of a worker's
// Replayer lifecycle, one CHECK stage at a time on one slot: a stage reuses
// the slot's kernel, and a stage that fails — a kernel's panic, or
// cancellation — empties the slot, so the next stage builds a fresh kernel.
func TestWorkerReplayerDroppedAfterError(t *testing.T) {
	var built atomic.Int64
	ks := countingPosix(&built)[1]
	good := manySetupTests(8, 2)
	panics := append(manySetupTests(2, 1), kernel.TestCase{ID: "frob", Calls: [2]kernel.Call{
		{Op: "frob", Args: map[string]int64{}}, {Op: "stat", Proc: 1, Args: map[string]int64{"fname": 0}},
	}})
	var rep *kernel.Replayer
	for _, step := range []struct {
		what      string
		ctx       context.Context
		tests     []kernel.TestCase
		fails     bool
		wantBuilt int64
	}{
		{"first stage", context.Background(), good, false, 1},
		{"second stage", context.Background(), good, false, 1},
		{"a kernel's panic", context.Background(), panics, true, 1},
		{"stage after the panic", context.Background(), good, false, 2},
		{"cancelled stage", &trippingContext{Context: context.Background(), trip: 5}, good, true, 2},
		{"stage after the cancellation", context.Background(), good, false, 3},
	} {
		var out PairResult
		cell, err := runCheck(step.ctx, ks, &rep, step.tests, &out)
		if (err != nil) != step.fails || (rep == nil) != step.fails {
			t.Fatalf("%s: err %v, slot emptied %v; want failure %v", step.what, err, rep == nil, step.fails)
		}
		if !step.fails && (cell.Total != len(step.tests) || out.CheckGroups != 8) {
			t.Errorf("%s: cell %+v over %d groups, want %d tests in 8", step.what, cell, out.CheckGroups, len(step.tests))
		}
		if n := built.Load(); n != step.wantBuilt {
			t.Errorf("%s: %d kernels built so far, want %d", step.what, n, step.wantBuilt)
		}
	}
}
