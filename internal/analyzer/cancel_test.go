package analyzer

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/spec"
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
	if len(got.Paths) != len(want.Paths) || got.Summary() != want.Summary() {
		t.Errorf("ctx variant diverged: %q vs %q", got.Summary(), want.Summary())
	}
}
