package analyzer

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/spec"
	"repro/internal/sym"
)

func opOf(t *testing.T, name string) *spec.Op {
	t.Helper()
	op, err := spec.OpByName(model.Spec, name)
	if err != nil {
		t.Fatal(err)
	}
	return op
}

// TestAnalyzePairCtxCancel pins that a cancelled context aborts the
// analysis with context.Canceled instead of returning a partial (and
// therefore misleading) pair result.
func TestAnalyzePairCtxCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	op := opOf(t, "rename")
	start := time.Now()
	pr, err := AnalyzePairCtx(ctx, model.Spec, op, op, Options{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if len(pr.Paths) != 0 {
		t.Errorf("cancelled analysis returned %d paths", len(pr.Paths))
	}
	// rename/rename costs tens of milliseconds when actually analyzed; a
	// pre-cancelled context must return near-instantly.
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("pre-cancelled analysis took %v", d)
	}
}

// TestAnalyzePairCtxBackground pins that a live cancellable context — whose
// Stop hook the solver polls — yields the result a context that can never
// be cancelled does.
func TestAnalyzePairCtxBackground(t *testing.T) {
	a, b := opOf(t, "stat"), opOf(t, "unlink")
	want := analyze(t, "stat", "unlink", Options{})
	live, cancel := context.WithCancel(context.Background())
	defer cancel()
	got, err := AnalyzePairCtx(live, model.Spec, a, b, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Paths) != len(want.Paths) || len(got.CommutativePaths()) != len(want.CommutativePaths()) || got.Unknown() != want.Unknown() {
		t.Errorf("ctx variant diverged: %d paths, %d commutative, %d unknown vs %d, %d, %d",
			len(got.Paths), len(got.CommutativePaths()), got.Unknown(),
			len(want.Paths), len(want.CommutativePaths()), want.Unknown())
	}
}

// TestAnalyzePairCtxCancelAtEveryPoll pins the cancellation contract at
// every point the analysis polls its context: before exploration, between
// replays, between classifications and after the last one. Each must
// return the context's error and a zero result.
func TestAnalyzePairCtxCancelAtEveryPoll(t *testing.T) {
	a, b := opOf(t, "close"), opOf(t, "stat")
	// A caller-owned solver keeps the Stop hook (and its polls) out of the
	// count, so every poll is one of the analysis's own stopping points.
	count := &trippingContext{Context: context.Background(), trip: 1 << 30}
	want, err := AnalyzePairCtx(count, model.Spec, a, b, Options{Solver: &sym.Solver{}})
	if err != nil || len(want.Paths) < 2 {
		t.Fatalf("uncancelled analysis: %d paths, err %v", len(want.Paths), err)
	}
	// One poll per replay, one per classified path, one final.
	if count.polls <= len(want.Paths)+1 {
		t.Fatalf("analysis polled its context %d times for %d paths", count.polls, len(want.Paths))
	}
	for trip := 0; trip < count.polls; trip++ {
		ctx := &trippingContext{Context: context.Background(), trip: trip}
		got, err := AnalyzePairCtx(ctx, model.Spec, a, b, Options{Solver: &sym.Solver{}})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled at poll %d of %d: got %v, want context.Canceled", trip, count.polls, err)
		}
		if got.Spec != "" || got.OpA != "" || got.OpB != "" || got.Paths != nil || got.Budgeted {
			t.Errorf("cancelled at poll %d: non-zero result %+v", trip, got)
		}
	}
}

// trippingContext reports cancellation once its Err method has been
// consulted trip times: deterministic mid-analysis cancellation.
type trippingContext struct {
	context.Context
	polls, trip int
}

func (c *trippingContext) Err() error {
	if c.polls++; c.polls > c.trip {
		return context.Canceled
	}
	return nil
}
