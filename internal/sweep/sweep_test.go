package sweep

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/analyzer"
	"repro/internal/kernel"
	"repro/internal/kernel/kerneltest"
	"repro/internal/kernel/unix"
	"repro/internal/kvspec"
	"repro/internal/model"
	"repro/internal/queuespec"
	"repro/internal/spec"
	"repro/internal/testgen"
)

// runSweep is RunContext with no deadline, the form most engine tests want.
func runSweep(cfg Config) (*Result, error) { return RunContext(context.Background(), cfg) }

// testOps is a small, fast operation universe (6 pairs) for engine tests.
func testOps(t testing.TB) []*spec.Op {
	return []*spec.Op{testOp(t, "stat"), testOp(t, "lseek"), testOp(t, "close")}
}

// testOp resolves one posix op by name.
func testOp(t testing.TB, name string) *spec.Op {
	t.Helper()
	op, err := spec.OpByName(model.Spec, name)
	if err != nil {
		t.Fatal(err)
	}
	return op
}

func testKernels() []KernelSpec {
	return []KernelSpec{
		{Name: "linux", New: func() kernel.Kernel { return unix.New(unix.Linux) }},
		{Name: "sv6", New: func() kernel.Kernel { return unix.New(unix.SV6) }},
	}
}

// sequentialReference computes the expected sweep result with a plain
// sequential loop over the same pipeline, mirroring the pre-engine
// evaluation path (earlier-op-first pair orientation).
func sequentialReference(t testing.TB, ops []*spec.Op, kernels []KernelSpec) []PairResult {
	t.Helper()
	var out []PairResult
	for i, a := range ops {
		for _, b := range ops[:i+1] {
			pr, err := analyzer.AnalyzePairCtx(context.Background(), model.Spec, b, a, analyzer.Options{})
			if err != nil {
				t.Fatal(err)
			}
			tests, _ := testgen.GenerateChecked(model.Spec, pr, testgen.Options{})
			res := PairResult{OpA: pr.OpA, OpB: pr.OpB, Tests: len(tests)}
			for _, ks := range kernels {
				cell := KernelCell{Kernel: ks.Name}
				for _, tc := range tests {
					cr := kerneltest.Check(ks.New, tc)
					cell.Total++
					if !cr.ConflictFree {
						cell.Conflicts++
					}
				}
				res.Cells = append(res.Cells, cell)
			}
			out = append(out, res)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].OpA != out[j].OpA {
			return out[i].OpA < out[j].OpA
		}
		return out[i].OpB < out[j].OpB
	})
	return out
}

// stripTiming clears the fields that legitimately vary between runs so the
// deterministic payload can be compared directly.
func stripTiming(pairs []PairResult) []PairResult {
	out := make([]PairResult, len(pairs))
	for i, p := range pairs {
		p.ElapsedMS = 0
		p.Cached = false
		p.Coalesced = false
		p.StartMS = 0
		p.Phases = PhaseTimes{}
		p.Solver = SolverCounters{}
		// CheckGroups is only populated when the CHECK stage actually
		// replays (cache hits skip it).
		p.CheckGroups = 0
		out[i] = p
	}
	return out
}

// TestSweepMatchesSequential pins the engine's core contract: the parallel
// sweep computes exactly what the sequential pipeline computes, for any
// worker count.
func TestSweepMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep pipeline in -short mode")
	}
	ops, kernels := testOps(t), testKernels()
	want := sequentialReference(t, ops, kernels)

	for _, workers := range []int{1, 4} {
		res, err := runSweep(Config{Ops: ops, Kernels: kernels, Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if res.Workers != workers {
			t.Errorf("workers=%d: resolved pool size %d", workers, res.Workers)
		}
		if got := stripTiming(res.Pairs); !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: sweep diverges from sequential pipeline\ngot  %+v\nwant %+v", workers, got, want)
		}
	}
}

// TestSweepWarmCache pins incrementality: a second identical sweep is all
// hits and recomputes nothing, yet reports identical results.
func TestSweepWarmCache(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep pipeline in -short mode")
	}
	ops, kernels := testOps(t), testKernels()
	cache, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Ops: ops, Kernels: kernels, Workers: 4, Cache: cache}

	cold, err := runSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantPairs := len(ops) * (len(ops) + 1) / 2
	if len(cold.Pairs) != wantPairs {
		t.Fatalf("got %d pairs, want %d", len(cold.Pairs), wantPairs)
	}
	wantCold := CacheStats{TestgenMisses: wantPairs, CheckMisses: wantPairs * len(kernels)}
	if cold.Cache != wantCold {
		t.Errorf("cold run: stats %+v, want %+v", cold.Cache, wantCold)
	}
	for _, p := range cold.Pairs {
		if p.Cached {
			t.Errorf("cold run: pair %s claims to be cached", p.Pair())
		}
	}

	warm, err := runSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantWarm := CacheStats{TestgenHits: wantPairs, CheckHits: wantPairs * len(kernels)}
	if warm.Cache != wantWarm {
		t.Errorf("warm run: stats %+v, want %+v", warm.Cache, wantWarm)
	}
	for _, p := range warm.Pairs {
		if !p.Cached {
			t.Errorf("warm run: pair %s was recomputed", p.Pair())
		}
	}
	if got, want := stripTiming(warm.Pairs), stripTiming(cold.Pairs); !reflect.DeepEqual(got, want) {
		t.Errorf("warm results diverge from cold results\ngot  %+v\nwant %+v", got, want)
	}
}

// TestSweepKernelSubsetWarm pins the tentpole scenario the two-tier cache
// exists for: after a both-kernel sweep, a one-kernel sweep of the same
// ops against the same cache performs zero analyzer/testgen invocations
// (no TESTGEN misses) and zero kernel checks (no CHECK misses) — both
// tiers serve, and every pair reports Cached.
func TestSweepKernelSubsetWarm(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep pipeline in -short mode")
	}
	ops, kernels := testOps(t), testKernels()
	cache, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	full, err := runSweep(Config{Ops: ops, Kernels: kernels, Workers: 4, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	wantPairs := len(ops) * (len(ops) + 1) / 2

	for _, ks := range kernels {
		sub, err := runSweep(Config{Ops: ops, Kernels: []KernelSpec{ks}, Workers: 4, Cache: cache})
		if err != nil {
			t.Fatalf("%s subset: %v", ks.Name, err)
		}
		want := CacheStats{TestgenHits: wantPairs, CheckHits: wantPairs}
		if sub.Cache != want {
			t.Errorf("%s subset: stats %+v, want %+v (a miss means work was recomputed)", ks.Name, sub.Cache, want)
		}
		for i, p := range sub.Pairs {
			if !p.Cached {
				t.Errorf("%s subset: pair %s was recomputed", ks.Name, p.Pair())
			}
			// The subset's single cell must be exactly the full sweep's
			// cell for this kernel.
			fp := full.Pairs[i]
			if p.OpA != fp.OpA || p.OpB != fp.OpB || p.Tests != fp.Tests {
				t.Fatalf("%s subset: pair %d is %s, full sweep has %s", ks.Name, i, p.Pair(), fp.Pair())
			}
			var wantCell *KernelCell
			for j := range fp.Cells {
				if fp.Cells[j].Kernel == ks.Name {
					wantCell = &fp.Cells[j]
				}
			}
			if wantCell == nil || len(p.Cells) != 1 || p.Cells[0] != *wantCell {
				t.Errorf("%s subset: pair %s cells %+v, want [%+v]", ks.Name, p.Pair(), p.Cells, wantCell)
			}
		}
	}
}

// TestSweepNewKernelReusesTests pins the other half of the tier split:
// sweeping a kernel the cache has never seen hits the TESTGEN tier for
// every pair (no symbolic work reruns) but misses CHECK, which reruns
// against the cached tests and produces the same cells as a cache-free
// sweep.
func TestSweepNewKernelReusesTests(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep pipeline in -short mode")
	}
	ops, kernels := testOps(t), testKernels()
	linuxOnly, sv6Only := kernels[:1], kernels[1:]
	cache, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runSweep(Config{Ops: ops, Kernels: linuxOnly, Workers: 4, Cache: cache}); err != nil {
		t.Fatal(err)
	}
	wantPairs := len(ops) * (len(ops) + 1) / 2

	added, err := runSweep(Config{Ops: ops, Kernels: sv6Only, Workers: 4, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	want := CacheStats{TestgenHits: wantPairs, CheckMisses: wantPairs}
	if added.Cache != want {
		t.Errorf("new-kernel run: stats %+v, want %+v", added.Cache, want)
	}
	for _, p := range added.Pairs {
		if p.Cached {
			t.Errorf("new-kernel run: pair %s claims to be fully cached", p.Pair())
		}
	}

	reference, err := runSweep(Config{Ops: ops, Kernels: sv6Only, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := stripTiming(added.Pairs), stripTiming(reference.Pairs); !reflect.DeepEqual(got, want) {
		t.Errorf("cells checked against cached tests diverge from a cache-free sweep\ngot  %+v\nwant %+v", got, want)
	}
}

// TestSweepProgressAndArtifact pins the streaming surfaces: one serialized
// progress event per pair with a monotone Done counter, and a JSONL
// artifact — each event's Result encoded one per line, the way `commuter
// sweep -out` writes it — that round-trips to the same results.
func TestSweepProgressAndArtifact(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep pipeline in -short mode")
	}
	ops, kernels := testOps(t), testKernels()
	var (
		mu     sync.Mutex
		events []Event
	)
	res, err := runSweep(Config{
		Ops: ops, Kernels: kernels, Workers: 4,
		Progress: func(ev Event) {
			mu.Lock()
			events = append(events, ev)
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	wantPairs := len(res.Pairs)
	if len(events) != wantPairs {
		t.Fatalf("got %d progress events, want %d", len(events), wantPairs)
	}
	for i, ev := range events {
		if ev.Done != i+1 || ev.Total != wantPairs {
			t.Errorf("event %d: done=%d total=%d, want %d/%d", i, ev.Done, ev.Total, i+1, wantPairs)
		}
	}

	var artifact bytes.Buffer
	enc := json.NewEncoder(&artifact)
	for _, ev := range events {
		if err := enc.Encode(ev.Result); err != nil {
			t.Fatal(err)
		}
	}
	var fromArtifact []PairResult
	for dec := json.NewDecoder(&artifact); dec.More(); {
		var pr PairResult
		if err := dec.Decode(&pr); err != nil {
			t.Fatal(err)
		}
		fromArtifact = append(fromArtifact, pr)
	}
	sort.Slice(fromArtifact, func(i, j int) bool {
		if fromArtifact[i].OpA != fromArtifact[j].OpA {
			return fromArtifact[i].OpA < fromArtifact[j].OpA
		}
		return fromArtifact[i].OpB < fromArtifact[j].OpB
	})
	if got, want := stripTiming(fromArtifact), stripTiming(res.Pairs); !reflect.DeepEqual(got, want) {
		t.Errorf("artifact diverges from results\ngot  %+v\nwant %+v", got, want)
	}
}

// TestParallel pins the scheduling primitive, the executor both drivers
// feed: every submitted job reaches the callback exactly once, for
// degenerate and normal worker counts, with and without a queue; and a
// callback's error stops the pool and is what wait reports.
func TestParallel(t *testing.T) {
	get, err := spec.OpByName(kvspec.Spec, "get")
	if err != nil {
		t.Fatal(err)
	}
	errStop := errors.New("callback failed")
	for _, tc := range []struct{ n, workers, queue, failAt int }{
		{0, 4, 0, -1}, {1, 4, 0, -1}, {7, 1, 0, -1}, {7, 3, 0, -1}, {3, 100, 0, -1}, {16, 0, 0, -1},
		{7, 3, 6, -1}, {16, 1, 0, 3}, {16, 1, 4, 3}, {16, 3, 0, 3},
	} {
		r, err := newRun(context.Background(), Config{Spec: kvspec.Spec, Workers: tc.workers})
		if err != nil {
			t.Fatal(err)
		}
		counts := make([]int, tc.n)
		var mu sync.Mutex
		ex := r.startExecutor(context.Background(), tc.queue, func(_ context.Context, j pairJob, pr PairResult) error {
			i, err := strconv.Atoi(j.id)
			if err != nil || pr.Pair() != "get/get" {
				t.Errorf("callback got job %q with pair %s", j.id, pr.Pair())
			}
			mu.Lock()
			counts[i]++
			mu.Unlock()
			if i == tc.failAt {
				return errStop
			}
			return nil
		})
		submitted := 0
		for ; submitted < tc.n; submitted++ {
			if !ex.submit(pairJob{a: get, b: get, id: strconv.Itoa(submitted)}) {
				break
			}
		}
		err = ex.wait()
		r.close()
		if tc.failAt < 0 {
			if err != nil || submitted != tc.n {
				t.Errorf("n=%d workers=%d queue=%d: %d jobs submitted, err %v", tc.n, tc.workers, tc.queue, submitted, err)
			}
			for i, c := range counts {
				if c != 1 {
					t.Errorf("n=%d workers=%d queue=%d: job %d ran %d times", tc.n, tc.workers, tc.queue, i, c)
				}
			}
			continue
		}
		if !errors.Is(err, errStop) {
			t.Errorf("queue=%d: wait = %v, want the callback's error", tc.queue, err)
		}
		for i, c := range counts {
			// One worker takes jobs in order, so nothing after the failing
			// job may run; several may have been past it already.
			if c > 1 || (tc.workers == 1 && (c == 1) != (i <= tc.failAt)) {
				t.Errorf("workers=%d queue=%d: job %d ran %d times around failing job %d", tc.workers, tc.queue, i, c, tc.failAt)
			}
		}
	}
}

// busyGauge tracks how many kernels are inside Apply or Exec at one
// instant, and the most it ever saw.
type busyGauge struct{ cur, max atomic.Int64 }

func (g *busyGauge) enter() {
	n := g.cur.Add(1)
	for m := g.max.Load(); n > m && !g.max.CompareAndSwap(m, n); m = g.max.Load() {
	}
	runtime.Gosched() // widen the window another worker could overlap
}

func (g *busyGauge) exit() { g.cur.Add(-1) }

type gaugedKernel struct {
	kernel.Kernel
	g *busyGauge
}

func (k gaugedKernel) Apply(s kernel.Setup) {
	k.g.enter()
	defer k.g.exit()
	k.Kernel.Apply(s)
}

func (k gaugedKernel) Exec(core int, c kernel.Call) kernel.Result {
	k.g.enter()
	defer k.g.exit()
	return k.Kernel.Exec(core, c)
}

// TestWorkersBoundExecutingKernels pins the one scheduler's guarantee: the
// drivers' pools are the only source of concurrency, so no more than
// Workers kernels are ever executing at once — under RunContext and under
// RunFleet's lease executors. The TESTGEN tier is warmed first so every
// pair goes straight to CHECK, where the kernels run.
func TestWorkersBoundExecutingKernels(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep pipeline in -short mode")
	}
	ops := testOps(t)
	cache := NewMemBackend(0)
	mustRun(t, Config{Ops: ops, Kernels: testKernels(), Cache: cache})

	drivers := map[string]func(Config) (*Result, error){
		"RunContext": runSweep,
		"RunFleet": func(cfg Config) (*Result, error) {
			return RunFleet(context.Background(), cfg, LocalFleet(NewFleetHub(0, nil)))
		},
	}
	for name, drive := range drivers {
		for _, workers := range []int{1, 3} {
			t.Run(fmt.Sprintf("%s/j%d", name, workers), func(t *testing.T) {
				var g busyGauge
				// A kernel name of its own keeps the CHECK tier cold.
				ks := KernelSpec{
					Name: fmt.Sprintf("gauged-%s-%d", name, workers),
					New:  func() kernel.Kernel { return gaugedKernel{unix.New(unix.Linux), &g} },
				}
				res, err := drive(Config{Ops: ops, Kernels: []KernelSpec{ks}, Workers: workers, Cache: cache})
				if err != nil {
					t.Fatal(err)
				}
				if res.Cache.CheckMisses != len(res.Pairs) {
					t.Fatalf("%d CHECK stages ran, want all %d", res.Cache.CheckMisses, len(res.Pairs))
				}
				if peak := g.max.Load(); peak < 1 || peak > int64(workers) {
					t.Errorf("%d kernels executed at once with Workers=%d", peak, workers)
				}
				if now := g.cur.Load(); now != 0 {
					t.Errorf("%d kernels still executing after the sweep returned", now)
				}
			})
		}
	}
}

// TestPairWithoutTestsBuildsNoKernel pins the CHECK stage's guard: ordered
// sends never commute, so send/send generates no tests, and a stage with
// nothing to replay must not pay for a kernel.
func TestPairWithoutTestsBuildsNoKernel(t *testing.T) {
	ops, err := spec.OpSet(queuespec.Spec, "send")
	if err != nil {
		t.Fatal(err)
	}
	var built atomic.Int64
	ks := KernelSpec{Name: "counting", New: func() kernel.Kernel {
		built.Add(1)
		return implSpec(queuespec.Spec, t).New()
	}}
	res := mustRun(t, Config{Spec: queuespec.Spec, Ops: ops, Kernels: []KernelSpec{ks}})
	want := []KernelCell{{Kernel: "counting"}}
	if len(res.Pairs) != 1 || res.Pairs[0].Tests != 0 || !reflect.DeepEqual(res.Pairs[0].Cells, want) {
		t.Fatalf("send/send: %+v, want one pair with no tests and an empty cell", res.Pairs)
	}
	if total, conflicts, err := CheckTestsCtx(context.Background(), ks.New, nil); total != 0 || conflicts != 0 || err != nil {
		t.Errorf("CheckTestsCtx of no tests = %d, %d, %v", total, conflicts, err)
	}
	if n := built.Load(); n != 0 {
		t.Errorf("%d kernels built for stages with nothing to replay", n)
	}
}
