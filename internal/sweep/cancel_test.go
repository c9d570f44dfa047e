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
	"testing"
	"time"
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
	stored := 0
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
		stored++
	}

	// Every stored entry must be a genuine hit on a fresh warm run: the
	// survivors are complete, not merely parsable.
	warm, err := runSweep(Config{Ops: ops, Kernels: testKernels(), Workers: 2, Cache: cache})
	if err != nil {
		t.Fatalf("warm sweep after cancellation: %v", err)
	}
	if warm.Cache.TestgenHits+warm.Cache.CheckHits < stored {
		t.Errorf("warm run hit %d+%d entries, but the cancelled run stored %d",
			warm.Cache.TestgenHits, warm.Cache.CheckHits, stored)
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
