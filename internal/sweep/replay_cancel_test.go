package sweep

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/kernel"
	"repro/internal/kernel/unix"
)

// trippingContext reports cancellation after its Err method has been
// consulted a fixed number of times — deterministic mid-run cancellation
// for code that polls ctx.Err() at its stopping points, where a timer or
// an external cancel() would race the replay loop.
type trippingContext struct {
	context.Context
	polls atomic.Int64
	trip  int64
}

func (c *trippingContext) Err() error {
	if c.polls.Add(1) > c.trip {
		return context.Canceled
	}
	return c.Context.Err()
}

// manySetupTests hand-builds a CHECK batch with many distinct setups, so
// the replay loop has real group boundaries to cross. The (g%4, g%3, g%5)
// shape triple repeats only every lcm = 60 groups, so up to 60 groups
// every fingerprint is distinct.
func manySetupTests(groups, perGroup int) []kernel.TestCase {
	var tests []kernel.TestCase
	for g := 0; g < groups; g++ {
		inum := int64(1 + g%3)
		setup := &unix.Setup{
			Files:  []unix.SetupFile{{Name: int64(g % 4), Inum: inum}},
			Inodes: []unix.SetupInode{{Inum: inum, Len: int64(g % 5)}},
		}
		for i := 0; i < perGroup; i++ {
			tests = append(tests, kernel.TestCase{
				ID:    fmt.Sprintf("g%d_t%d", g, i),
				Setup: setup,
				Calls: [2]kernel.Call{
					{Op: "stat", Proc: 0, Args: map[string]int64{"fname": int64(g % 4)}},
					{Op: "stat", Proc: 1, Args: map[string]int64{"fname": int64((g + 1) % 4)}},
				},
			})
		}
	}
	return tests
}

// TestReplayCancelStopsPromptly pins the CHECK replay loop's
// cancellation contract: once the context reports cancellation mid-batch
// the loop stops within one test, returns the context error with partial
// counts, and leaves no goroutine behind.
func TestReplayCancelStopsPromptly(t *testing.T) {
	tests := manySetupTests(32, 4)
	ks := testKernels()[0]

	before := runtime.NumGoroutine()
	ctx := &trippingContext{Context: context.Background(), trip: 25}
	total, _, err := CheckTestsCtx(ctx, ks.New, tests)

	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled check returned %v, want context.Canceled", err)
	}
	// Every checked test is followed by a poll, so at most trip tests saw
	// a live context and at most one more was in flight when it tripped.
	if total == 0 || int64(total) > ctx.trip+1 {
		t.Errorf("cancelled run checked %d of %d tests, want 1..%d", total, len(tests), ctx.trip+1)
	}

	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutine leak: %d before check, %d after", before, after)
	}
}

// TestReplayCancelDoesNotCacheTruncatedCell pins the cache side of
// the contract: a CHECK stage cut short by cancellation must not store its
// partial counts, and a later uncancelled run computes and stores the
// complete cell under the same key.
func TestReplayCancelDoesNotCacheTruncatedCell(t *testing.T) {
	cache, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	tests := manySetupTests(16, 4)
	ks := testKernels()[0]
	r := &run{cfg: Config{Cache: cache}}
	out := PairResult{OpA: "stat", OpB: "stat"}
	check := func(ctx context.Context) (stageOutcome[KernelCell], error) {
		var w worker
		return checkStage.run(ctx, r, "ck-cancel-key", &out, nil, func() (KernelCell, int, error) {
			cell, err := w.check(ctx, 0, ks, tests, &out)
			return cell, 0, err
		})
	}

	ctx := &trippingContext{Context: context.Background(), trip: 10}
	if _, err := check(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled CHECK stage returned %v, want context.Canceled", err)
	}
	if _, ok := cache.GetCell("ck-cancel-key"); ok {
		t.Fatalf("cancelled CHECK stored a truncated cell")
	}

	outcome, err := check(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if outcome.fromCache {
		t.Fatalf("rerun was served from cache despite no stored cell")
	}
	cl, ok := cache.GetCell("ck-cancel-key")
	if !ok {
		t.Fatalf("complete CHECK did not store its cell")
	}
	if cl.Total != len(tests) {
		t.Errorf("stored cell counts %d tests, want %d", cl.Total, len(tests))
	}
}
