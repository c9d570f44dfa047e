package sweep

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/analyzer"
	"repro/internal/kernel"
	"repro/internal/kernel/unix"
	"repro/internal/model"
	"repro/internal/spec"
	"repro/internal/testgen"
)

// errSetup is the injected mid-sweep failure.
var errSetup = errors.New("injected setup failure")

// flakyKernel delegates to a real kernel but fails every Apply after the
// first failAfter that its siblings and it made together — by panicking,
// the one way a kernel can fail; the Replayer makes it the test's error.
// The count is shared because how many kernels a sweep builds depends on
// how many of its workers the scheduler lets reach CHECK.
type flakyKernel struct {
	kernel.Kernel
	applied   *atomic.Int64
	failAfter int64
}

func (f *flakyKernel) Apply(s kernel.Setup) {
	if f.applied.Add(1) > f.failAfter {
		panic(errSetup)
	}
	f.Kernel.Apply(s)
}

// TestSweepFailFastCleanShutdown pins the engine's error path, best run
// under -race: a pair that starts failing mid-sweep must fail the whole
// run with that pair's error, already-finished pairs must keep their
// serialized, monotone progress events, every worker goroutine must exit
// before Run returns, and pairs scheduled after the failure are skipped.
func TestSweepFailFastCleanShutdown(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep pipeline in -short mode")
	}
	ops := testOps(t)
	const failAfter = 2 // setups applied, over every kernel, before failures begin
	var applied atomic.Int64
	kernels := []KernelSpec{{
		Name: "flaky",
		New: func() kernel.Kernel {
			return &flakyKernel{Kernel: unix.New(unix.Linux), applied: &applied, failAfter: failAfter}
		},
	}}

	var (
		mu     sync.Mutex
		events []Event
	)
	before := runtime.NumGoroutine()
	res, err := runSweep(Config{
		Ops: ops, Kernels: kernels, Workers: 4,
		Progress: func(ev Event) {
			mu.Lock()
			events = append(events, ev)
			mu.Unlock()
		},
	})
	if err == nil {
		t.Fatal("sweep with failing pair returned nil error")
	}
	if !strings.Contains(err.Error(), errSetup.Error()) {
		t.Errorf("error lost the cause: %v", err)
	}
	if !strings.Contains(err.Error(), "flaky") {
		t.Errorf("error does not name the kernel: %v", err)
	}
	if res != nil {
		t.Errorf("failed sweep returned a result: %+v", res)
	}

	// Events for pairs that finished before the failure are intact and
	// serialized: Done counts 1..k with the shared total.
	wantPairs := len(ops) * (len(ops) + 1) / 2
	mu.Lock()
	for i, ev := range events {
		if ev.Done != i+1 || ev.Total != wantPairs {
			t.Errorf("event %d: done=%d total=%d, want %d/%d", i, ev.Done, ev.Total, i+1, wantPairs)
		}
	}
	got := len(events)
	mu.Unlock()
	if got >= wantPairs {
		t.Errorf("all %d pairs reported success despite injected failure", got)
	}

	// All workers must have exited before Run returned (Parallel waits on
	// its pool); allow the runtime a moment to retire finished goroutines.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutine leak: %d before sweep, %d after", before, after)
	}
}

// TestSweepSurvivesPoisonedTestgenEntry pins the other way a cached pair
// can go wrong: the TESTGEN tier serves whatever entry carries the right
// version and key (a disk or a cache peer wrote it), so a test in it can
// name an op outside the pair. Such a hit is a miss: the sweep recomputes
// the pair, renders the clean run's matrix and overwrites the entry. The
// entries are written by a linux sweep and read by an sv6 one, since a
// pair whose every cell hits never reads its TESTGEN entry.
func TestSweepSurvivesPoisonedTestgenEntry(t *testing.T) {
	linux, sv6 := testKernels()[:1], testKernels()[1:]
	cfg := Config{Ops: []*spec.Op{testOp(t, "stat"), testOp(t, "close")}, Kernels: linux,
		Cache: NewMemBackend(0), Workers: 2}
	if _, err := runSweep(cfg); err != nil {
		t.Fatal(err)
	}
	key := TestgenKey("posix", "stat", "close", cfg.Analyzer, cfg.Testgen)
	want, _ := cfg.Cache.GetTests(key)
	poisoned := []kernel.TestCase{{ID: "stat-close-poisoned", Calls: [2]kernel.Call{
		{Op: "stat", Args: map[string]int64{"fname": 0}},
		{Op: "frob", Proc: 1},
	}}}
	if err := cfg.Cache.PutTests(key, poisoned); err != nil {
		t.Fatal(err)
	}
	clean, err := runSweep(Config{Ops: cfg.Ops, Kernels: sv6, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Kernels = sv6
	res, err := runSweep(cfg)
	if err != nil {
		t.Fatalf("sweep over a poisoned entry: %v", err)
	}
	if got, want := stripTiming(res.Pairs), stripTiming(clean.Pairs); !reflect.DeepEqual(got, want) {
		t.Errorf("sweep over a poisoned entry computed\n%+v\nnot the clean run's\n%+v", got, want)
	}
	if want := (CacheStats{TestgenHits: 2, TestgenMisses: 1, CheckMisses: 3}); res.Cache != want {
		t.Errorf("cache %+v, want %+v: the poisoned entry as the one TESTGEN miss", res.Cache, want)
	}
	if got, _ := cfg.Cache.GetTests(key); len(want) == 0 || !reflect.DeepEqual(got, want) {
		t.Errorf("the backend holds %d tests for stat/close, not the %d regenerated ones", len(got), len(want))
	}
}

// TestPairTestsAllocatesNothing pins the cost of the check a sweep asks of
// every TESTGEN hit, and that it accepts a pair's own tests only.
func TestPairTestsAllocatesNothing(t *testing.T) {
	a := testOp(t, "rename")
	tests, _, err := PairTests(context.Background(), model.Spec, a, a, analyzer.Options{}, testgen.Options{}, &PairResult{})
	if err != nil || len(tests) == 0 {
		t.Fatalf("rename/rename: %d tests, %v", len(tests), err)
	}
	if !pairTests(tests, "rename", "rename") || pairTests(tests, "rename", "stat") {
		t.Fatal("pairTests misjudges rename/rename's own tests")
	}
	if n := testing.AllocsPerRun(100, func() { pairTests(tests, "rename", "rename") }); n != 0 {
		t.Errorf("pairTests allocates %v times per call", n)
	}
}
