package sweep

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/analyzer"
	"repro/internal/model"
	"repro/internal/spec"
	"repro/internal/testgen"
)

// TestSweepCancelMidFlight pins the cancellation contract end to end, best
// run under -race: cancelling a sweep mid-flight makes RunContext return
// context.Canceled promptly, every worker goroutine exits before it
// returns, and the cache directory holds only complete, parsable entries
// (an in-flight pair abandons its work instead of storing a truncated
// result; entry writes themselves are atomic temp-file renames).
func TestSweepCancelMidFlight(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep pipeline in -short mode")
	}
	ops := testOps(t)
	dir := t.TempDir()
	cache, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var (
		mu     sync.Mutex
		events []Event
	)
	before := runtime.NumGoroutine()
	start := time.Now()
	res, err := RunContext(ctx, Config{
		Ops: ops, Kernels: testKernels(), Workers: 4, Cache: cache,
		Progress: func(ev Event) {
			mu.Lock()
			events = append(events, ev)
			mu.Unlock()
			// Cancel from inside the first pair's progress callback: the
			// remaining pairs are either unstarted (must never start) or
			// in-flight (must abandon their work).
			if ev.Done == 1 {
				cancel()
			}
		},
	})
	elapsed := time.Since(start)

	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled sweep returned %v, want context.Canceled", err)
	}
	if res != nil {
		t.Errorf("cancelled sweep returned a result: %+v", res)
	}
	// "Promptly" for this universe: the full sweep costs well under ten
	// seconds, so a generous bound still catches a pool that drains the
	// whole queue before noticing.
	if elapsed > 30*time.Second {
		t.Errorf("cancelled sweep took %v to return", elapsed)
	}

	// All workers must have exited before RunContext returned; allow the
	// runtime a moment to retire finished goroutines.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutine leak: %d before sweep, %d after", before, after)
	}

	// Progress events that did fire stayed serialized and monotone.
	mu.Lock()
	for i, ev := range events {
		if ev.Done != i+1 {
			t.Errorf("event %d: done=%d, want %d", i, ev.Done, i+1)
		}
	}
	mu.Unlock()

	// The partial cache holds only complete entries: every file parses as
	// a current-version entry, and no temp files were left behind.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var storedTests, storedCells int
	for _, de := range entries {
		name := de.Name()
		if strings.Contains(name, ".tmp") {
			t.Errorf("cancelled sweep left temp file %s", name)
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		var e struct {
			Version int    `json:"version"`
			Key     string `json:"key"`
		}
		if err := json.Unmarshal(data, &e); err != nil {
			t.Errorf("cache entry %s does not parse: %v", name, err)
			continue
		}
		if e.Version != CacheVersion {
			t.Errorf("cache entry %s has version %d, want %d", name, e.Version, CacheVersion)
		}
		if e.Key == "" {
			t.Errorf("cache entry %s is missing its key", name)
		}
		if strings.HasSuffix(name, ".tests.json") {
			storedTests++
		} else {
			storedCells++
		}
	}

	// Every stored entry must be a genuine hit on a fresh warm run: the
	// survivors are complete, not merely parsable. A kernel no cell was
	// stored for reads every pair's TESTGEN entry; the sweep's own kernels
	// then read every cell.
	linux := testKernels()[0]
	uncached := []KernelSpec{{Name: "linux-uncached", New: linux.New}}
	tg, err := runSweep(Config{Ops: ops, Kernels: uncached, Workers: 2, Cache: cache})
	if err != nil {
		t.Fatalf("uncached-kernel sweep after cancellation: %v", err)
	}
	if tg.Cache.TestgenHits < storedTests {
		t.Errorf("uncached-kernel run hit %d TESTGEN entries, but the cancelled run stored %d",
			tg.Cache.TestgenHits, storedTests)
	}
	warm, err := runSweep(Config{Ops: ops, Kernels: testKernels(), Workers: 2, Cache: cache})
	if err != nil {
		t.Fatalf("warm sweep after cancellation: %v", err)
	}
	if warm.Cache.CheckHits < storedCells {
		t.Errorf("warm run hit %d CHECK entries, but the cancelled run stored %d",
			warm.Cache.CheckHits, storedCells)
	}
}

// TestSweepCancelBeforeStart pins the degenerate case: a context cancelled
// before RunContext is called returns context.Canceled without running any
// pair or emitting any event.
func TestSweepCancelBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	fired := false
	res, err := RunContext(ctx, Config{
		Ops: testOps(t), Kernels: testKernels(), Workers: 2,
		Progress: func(Event) { fired = true },
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if res != nil {
		t.Errorf("pre-cancelled sweep returned a result")
	}
	if fired {
		t.Errorf("pre-cancelled sweep emitted progress events")
	}
}

// cancellingSpec is a spec whose miner's Plan cancels the context its
// cancel belongs to. ANALYZE plans no setup, so it runs to the end;
// TESTGEN plans one per commutative path, so its first plan cuts
// generation short.
type cancellingSpec struct {
	spec.Spec
	cancel context.CancelFunc
	plans  atomic.Int64
}

func (s *cancellingSpec) NewMiner() spec.SetupMiner {
	return cancellingMiner{s.Spec.NewMiner(), s}
}

type cancellingMiner struct {
	spec.SetupMiner
	s *cancellingSpec
}

func (m cancellingMiner) Plan(a, b spec.State) {
	m.s.plans.Add(1)
	m.s.cancel()
	m.SetupMiner.Plan(a, b)
}

// TestCancelledTestgenIsDropped pins what becomes of a generation pass
// that cancellation cuts short after ANALYZE has finished: it is a
// truncated lower bound, so the stage returns context.Canceled and no
// tests, and through a sweep nothing of it reaches the cache or a cell.
func TestCancelledTestgenIsDropped(t *testing.T) {
	a, b := testOp(t, "stat"), testOp(t, "lseek")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sp := &cancellingSpec{Spec: model.Spec, cancel: cancel}
	tests, _, err := PairTests(ctx, sp, a, b, analyzer.Options{}, testgen.Options{}, new(PairResult))
	if sp.plans.Load() == 0 {
		t.Fatal("TESTGEN planned no setup: the cancellation did not land in it")
	}
	if !errors.Is(err, context.Canceled) || tests != nil {
		t.Errorf("TESTGEN cancelled: %d tests, err %v; want none, context.Canceled", len(tests), err)
	}

	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	sp = &cancellingSpec{Spec: model.Spec, cancel: cancel}
	backend := newCountingBackend(NewMemBackend(0))
	res, err := RunContext(ctx, Config{
		Spec: sp, Ops: []*spec.Op{a, b}, Kernels: testKernels(), Workers: 1, Cache: backend,
		Progress: func(ev Event) { t.Errorf("cancelled sweep reported pair %s", ev.Pair) },
	})
	if sp.plans.Load() == 0 {
		t.Fatal("the sweep's TESTGEN planned no setup: the cancellation did not land in it")
	}
	if !errors.Is(err, context.Canceled) || res != nil {
		t.Errorf("sweep cancelled in TESTGEN returned %v, %v; want context.Canceled", res, err)
	}
	backend.mu.Lock()
	defer backend.mu.Unlock()
	if len(backend.putTests) != 0 || len(backend.putCells) != 0 {
		t.Errorf("a cancelled generation pass reached the cache: %d tests entries, %d cells",
			len(backend.putTests), len(backend.putCells))
	}
}
