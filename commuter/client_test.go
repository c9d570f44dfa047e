package commuter_test

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/commuter"
	"repro/internal/analyzer"
	"repro/internal/model"
	"repro/internal/spec"
)

// TestLocalAnalyze pins the local binding's plain-data Analysis against
// the analyzer's symbolic result: same counts — the order-dependent one
// against CanDiverge over the analyzer's paths — and clauses.
func TestLocalAnalyze(t *testing.T) {
	cli := commuter.Local()
	defer cli.Close()
	a, err := cli.Analyze(context.Background(), "stat", "unlink")
	if err != nil {
		t.Fatal(err)
	}
	stat, _ := spec.OpByName(model.Spec, "stat")
	unlink, _ := spec.OpByName(model.Spec, "unlink")
	want, err := analyzer.AnalyzePairCtx(context.Background(), model.Spec, stat, unlink, analyzer.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if a.Paths != len(want.Paths) {
		t.Errorf("paths: %d, want %d", a.Paths, len(want.Paths))
	}
	if a.Commutative != len(want.CommutativePaths()) {
		t.Errorf("commutative: %d, want %d", a.Commutative, len(want.CommutativePaths()))
	}
	diverging := 0
	diverges, _ := analyzer.CanDiverge(context.Background(), want)
	for _, d := range diverges {
		if d {
			diverging++
		}
	}
	if a.OrderDependent != diverging || a.Unknown != want.Unknown() {
		t.Errorf("order-dependent %d, unknown %d; want %d, %d", a.OrderDependent, a.Unknown, diverging, want.Unknown())
	}
	if line := "stat x unlink: 7 paths, 5 commutative, 2 order-dependent"; a.Summary() != line {
		t.Errorf("summary %q, want %q", a.Summary(), line)
	}
	if len(a.PathDetails) != a.Paths {
		t.Errorf("%d path details for %d paths", len(a.PathDetails), a.Paths)
	}
	if len(a.Clauses) == 0 {
		t.Error("no clauses for a commutative pair")
	}
}

// TestLocalUnknownNames pins the error contract: unknown specs, ops and
// kernels return errors naming the known alternatives.
func TestLocalUnknownNames(t *testing.T) {
	cli := commuter.Local()
	ctx := context.Background()
	for _, tc := range []struct {
		name string
		call func() error
		want string
	}{
		{"spec", func() error {
			_, err := cli.Analyze(ctx, "stat", "stat", commuter.WithSpec("posxi"))
			return err
		}, "known specs:"},
		{"op", func() error {
			_, err := cli.Analyze(ctx, "renme", "rename")
			return err
		}, "known ops:"},
		{"op-testgen", func() error {
			_, err := cli.GenerateTests(ctx, "stat", "statt")
			return err
		}, "known ops:"},
		{"kernel", func() error {
			_, err := cli.Check(ctx, "sv7", nil)
			return err
		}, "known:"},
		{"sweep-ops", func() error {
			_, err := cli.Sweep(ctx, commuter.WithOps("stat", "nope"))
			return err
		}, "known ops:"},
		{"sweep-kernel", func() error {
			_, err := cli.Sweep(ctx, commuter.WithOps("stat"), commuter.WithKernels("sv7"))
			return err
		}, "known:"},
	} {
		err := tc.call()
		if err == nil {
			t.Errorf("%s: unknown name did not error", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not list the known names (%q)", tc.name, err, tc.want)
		}
	}
}

// TestSweepKernelsError pins kernel selection: with no WithKernels a sweep
// checks every implementation of the spec, and an unknown name is an error
// listing the known ones (not a panic, and not ignored).
func TestSweepKernelsError(t *testing.T) {
	cli := commuter.Local()
	ctx := context.Background()
	res, err := cli.Sweep(ctx, commuter.WithOps("stat"))
	if err != nil || len(res.Pairs) != 1 || len(res.Pairs[0].Cells) != 2 {
		t.Fatalf("default-kernel sweep = %+v, %v; want one pair with both kernels' cells", res, err)
	}
	if _, err := cli.Sweep(ctx, commuter.WithOps("stat"), commuter.WithKernels("sv7")); err == nil || !strings.Contains(err.Error(), "known:") {
		t.Errorf("sweep on sv7 = %v, want error listing known implementations", err)
	}
}

// TestLocalSpecs pins spec discovery against the registry.
func TestLocalSpecs(t *testing.T) {
	infos, err := commuter.Local().Specs(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]commuter.SpecInfo{}
	for _, in := range infos {
		byName[in.Name] = in
	}
	posix, ok := byName["posix"]
	if !ok {
		t.Fatal("posix spec missing from discovery")
	}
	if len(posix.Ops) != 18 || len(posix.Impls) != 2 {
		t.Errorf("posix: %d ops, %v impls", len(posix.Ops), posix.Impls)
	}
	if _, ok := byName["queue"]; !ok {
		t.Error("queue spec missing from discovery")
	}
	// The vm and kv interfaces ship with one reference implementation each
	// and advertise their named op subsets, so /v1/specs is enough for a
	// client to assemble any sweep invocation.
	for name, want := range map[string]struct {
		ops   int
		sets  []string
		impls []string
	}{
		"vm": {ops: 5, sets: []string{"map", "mem"}, impls: []string{"memvm"}},
		"kv": {ops: 4, sets: []string{"point", "range"}, impls: []string{"memkv"}},
	} {
		in, ok := byName[name]
		if !ok {
			t.Errorf("%s spec missing from discovery", name)
			continue
		}
		if len(in.Ops) != want.ops {
			t.Errorf("%s: %d ops, want %d", name, len(in.Ops), want.ops)
		}
		for _, set := range want.sets {
			if len(in.Sets[set]) == 0 {
				t.Errorf("%s: named subset %q missing (have %v)", name, set, in.Sets)
			}
		}
		if !reflect.DeepEqual(in.Impls, want.impls) {
			t.Errorf("%s: impls %v, want %v", name, in.Impls, want.impls)
		}
	}
}

// TestLocalPipelineEndToEnd drives the whole pipeline in-process:
// analyze, generate, check, and a streamed sweep whose final result
// agrees with its own per-pair updates.
func TestLocalPipelineEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("pipeline in -short mode")
	}
	cli := commuter.Local()
	ctx := context.Background()

	ts, err := cli.GenerateTests(ctx, "stat", "unlink", commuter.WithTestsPerPath(2))
	if err != nil {
		t.Fatal(err)
	}
	if len(ts.Tests) == 0 {
		t.Fatal("no tests generated for stat x unlink")
	}
	for _, kn := range []string{"linux", "sv6"} {
		sum, err := cli.Check(ctx, kn, ts.Tests)
		if err != nil {
			t.Fatal(err)
		}
		if sum.Total != len(ts.Tests) || len(sum.Verdicts) != len(ts.Tests) {
			t.Errorf("%s: checked %d of %d tests (%d verdicts)", kn, sum.Total, len(ts.Tests), len(sum.Verdicts))
		}
	}

	var pairs, progress int
	var final *commuter.SweepResult
	for upd, err := range cli.SweepStream(ctx, commuter.WithOps("stat", "lseek", "close"), commuter.WithWorkers(2)) {
		if err != nil {
			t.Fatal(err)
		}
		if upd.Pair != nil {
			pairs++
		}
		if upd.Progress != nil {
			progress++
		}
		if upd.Result != nil {
			final = upd.Result
		}
	}
	if final == nil {
		t.Fatal("stream ended without a result")
	}
	if want := 6; pairs != want || progress != want || len(final.Pairs) != want {
		t.Errorf("pairs=%d progress=%d result pairs=%d, want %d each", pairs, progress, len(final.Pairs), want)
	}
}

// TestLocalSweepStreamEarlyBreak pins the pull-side cancellation path:
// breaking out of the iterator must stop the sweep without leaking the
// bridge goroutine (the -race CI job watches the latter).
func TestLocalSweepStreamEarlyBreak(t *testing.T) {
	if testing.Short() {
		t.Skip("pipeline in -short mode")
	}
	cli := commuter.Local()
	seen := 0
	for upd, err := range cli.SweepStream(context.Background(), commuter.WithOps("stat", "lseek", "close")) {
		if err != nil {
			t.Fatal(err)
		}
		if upd.Result != nil {
			t.Fatal("result arrived before the break")
		}
		seen++
		break
	}
	if seen != 1 {
		t.Fatalf("saw %d updates, want 1", seen)
	}
}

// TestLocalSweepCancel pins the acceptance criterion for the local
// binding: cancelling mid-sweep surfaces context.Canceled.
func TestLocalSweepCancel(t *testing.T) {
	if testing.Short() {
		t.Skip("pipeline in -short mode")
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cli := commuter.Local()
	var sawErr error
	for upd, err := range cli.SweepStream(ctx, commuter.WithOps("stat", "lseek", "close")) {
		if err != nil {
			sawErr = err
			break
		}
		if upd.Progress != nil {
			cancel()
		}
	}
	if !errors.Is(sawErr, context.Canceled) {
		t.Errorf("cancelled stream ended with %v, want context.Canceled", sawErr)
	}
}

// pollCountingContext reports cancellation once its Err method has been
// consulted trip times: deterministic cancellation at any point of a call.
type pollCountingContext struct {
	context.Context
	polls, trip int
}

func (c *pollCountingContext) Err() error {
	if c.polls++; c.polls > c.trip {
		return context.Canceled
	}
	return nil
}

// TestLocalAnalyzeCancel pins that an Analyze whose context ends at any of
// the points it is consulted — inside the analysis, the description or the
// order-dependence searches after it — returns the context's error and no
// Analysis: searches cut short there would otherwise read as verdicts.
func TestLocalAnalyzeCancel(t *testing.T) {
	cli := commuter.Local()
	count := &pollCountingContext{Context: context.Background(), trip: 1 << 30}
	if _, err := cli.Analyze(count, "stat", "unlink"); err != nil {
		t.Fatal(err)
	}
	for trip := 0; trip < count.polls; trip++ {
		ctx := &pollCountingContext{Context: context.Background(), trip: trip}
		a, err := cli.Analyze(ctx, "stat", "unlink")
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled at poll %d of %d: got %v, want context.Canceled", trip, count.polls, err)
		}
		if !reflect.DeepEqual(a, commuter.Analysis{}) {
			t.Errorf("cancelled at poll %d: non-zero analysis %+v", trip, a)
		}
	}
}
