package sweep

import (
	"context"
	"reflect"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"

	"repro/internal/analyzer"
	"repro/internal/kvspec"
	"repro/internal/model"
	"repro/internal/queuespec"
	"repro/internal/spec"
	"repro/internal/sym"
	"repro/internal/testgen"
	"repro/internal/vmspec"
)

// TestLongLivedSolverIsInvisible pins what lets a sweep worker keep one
// Solver for both symbolic phases of every pair it runs: for all four
// specs, every pair in Pairs order generated on one long-lived solver gets
// exactly the tests, unknown count and solver counts a fresh solver per
// pair gives. A remembered answer that survived its pair would show up as
// missing searches; a Stop hook still wired to an earlier pair, or scratch
// a search left bound, as a different test set.
//
// The collector is held off while a pair runs, and run between pairs:
// interned nodes are weak, so a conjunct collected and rebuilt mid-pair
// gets a new id and misses the memo, and the two runs of one pair would
// count one search apart for a reason that has nothing to do with them.
func TestLongLivedSolverIsInvisible(t *testing.T) {
	if testing.Short() {
		t.Skip("every spec's pairs in -short mode")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	ctx := context.Background()
	var long *sym.Solver
	for _, sp := range []spec.Spec{model.Spec, vmspec.Spec, kvspec.Spec, queuespec.Spec} {
		gen := testgen.NewGenerator(sp)
		var tests, searches int64
		for _, p := range Pairs(sp.Ops()) {
			before := long
			var gotOut, wantOut PairResult
			got, gotUnknown, err := runTestgen(ctx, &long, gen, sp, p[0], p[1], analyzer.Options{}, testgen.Options{}, &gotOut)
			if err != nil {
				t.Fatal(err)
			}
			want, wantUnknown, err := PairTests(ctx, sp, p[0], p[1], analyzer.Options{}, testgen.Options{}, &wantOut)
			if err != nil {
				t.Fatal(err)
			}
			runtime.GC()
			pair := sp.Name() + " " + p[0].Name + "/" + p[1].Name
			if before != nil && long != before {
				t.Fatalf("%s: the long-lived solver was replaced", pair)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: %d tests on the long-lived solver, %d on a fresh one, or they differ", pair, len(got), len(want))
			}
			g, w := gotOut.Solver, wantOut.Solver
			if gotUnknown != wantUnknown || g.SatCalls != w.SatCalls || g.MemoHits != w.MemoHits || g.BudgetHits != w.BudgetHits {
				t.Errorf("%s: long-lived solver: %d unknown, %d searches, %d memo hits, %d budget hits; fresh: %d, %d, %d, %d",
					pair, gotUnknown, g.SatCalls, g.MemoHits, g.BudgetHits, wantUnknown, w.SatCalls, w.MemoHits, w.BudgetHits)
			}
			tests += int64(len(got))
			searches += g.SatCalls
		}
		t.Logf("%s: %d tests, %d searches", sp.Name(), tests, searches)
	}
}

// sweepWorkers runs cfg's sweep on one executor and returns its pairs and
// its workers' slots, as the sweep left them.
func sweepWorkers(t *testing.T, cfg Config) ([]PairResult, []worker) {
	t.Helper()
	ctx := context.Background()
	r := newRun(ctx, cfg)
	defer r.close()
	var (
		mu  sync.Mutex
		prs []PairResult
	)
	ex := r.startExecutor(ctx, 0, func(_ context.Context, _ pairJob, pr PairResult) error {
		mu.Lock()
		defer mu.Unlock()
		prs = append(prs, pr)
		return nil
	})
	for _, p := range Pairs(cfg.Ops) {
		ex.submit(pairJob{a: p[0], b: p[1]})
	}
	if err := ex.wait(); err != nil {
		t.Fatal(err)
	}
	return prs, ex.workers
}

// TestSweepBuildsOneSolverPerWorker pins the engine's solver count: a
// worker builds its solver at its first TESTGEN-tier miss and runs both
// phases of every later pair on it, so the pairs' solver counts add up to
// what the workers' solvers counted in all, and a warm sweep builds none.
func TestSweepBuildsOneSolverPerWorker(t *testing.T) {
	for _, workers := range []int{1, 2} {
		cfg := Config{Ops: testOps(t), Kernels: testKernels(), Workers: workers, Cache: NewMemBackend(0)}
		cold, ws := sweepWorkers(t, cfg)
		var pairs, built sym.SolverStats
		for _, pr := range cold {
			pairs.SatCalls += pr.Solver.SatCalls
			pairs.MemoHits += pr.Solver.MemoHits
		}
		n := 0
		for _, w := range ws {
			if w.solver != nil {
				n++
				st := w.solver.Stats()
				built.SatCalls += st.SatCalls
				built.MemoHits += st.MemoHits
			}
		}
		if len(cold) != 6 || n == 0 || n > workers {
			t.Fatalf("workers=%d: %d pairs, %d solvers kept", workers, len(cold), n)
		}
		if pairs.SatCalls == 0 || pairs != built {
			t.Errorf("workers=%d: pairs counted %+v, the workers' solvers %+v: a pair ran on a solver the worker did not keep",
				workers, pairs, built)
		}
		warm, ws := sweepWorkers(t, cfg)
		for i, w := range ws {
			if w.solver != nil {
				t.Errorf("workers=%d: warm sweep's worker %d built a solver", workers, i)
			}
		}
		for _, pr := range warm {
			if !pr.Cached {
				t.Errorf("workers=%d: warm sweep recomputed %s", workers, pr.Pair())
			}
		}
	}
}

// TestWorkerSolverDroppedAfterError pins the other half of a worker's
// Solver lifecycle, one TESTGEN stage at a time on one slot: a stage
// reuses the slot's solver, and a cancelled stage — before it starts, or
// partway through its analysis — empties the slot, so the next stage
// builds a fresh solver.
func TestWorkerSolverDroppedAfterError(t *testing.T) {
	a, b := testOp(t, "stat"), testOp(t, "lseek")
	cancelled, stop := context.WithCancel(context.Background())
	stop()
	var slot, last *sym.Solver
	gen := testgen.NewGenerator(model.Spec)
	for _, step := range []struct {
		what  string
		ctx   context.Context
		fails bool
		fresh bool // the stage runs on a solver built for it
	}{
		{"first stage", context.Background(), false, true},
		{"second stage", context.Background(), false, false},
		{"cancelled stage", cancelled, true, false},
		{"stage after the cancellation", context.Background(), false, true},
		{"stage cancelled mid-analysis", &trippingContext{Context: context.Background(), trip: 2}, true, false},
		{"stage after that", context.Background(), false, true},
	} {
		var out PairResult
		tests, _, err := runTestgen(step.ctx, &slot, gen, model.Spec, a, b, analyzer.Options{}, testgen.Options{}, &out)
		if (err != nil) != step.fails || (slot == nil) != step.fails {
			t.Fatalf("%s: err %v, slot emptied %v; want failure %v", step.what, err, slot == nil, step.fails)
		}
		if step.fails {
			continue
		}
		if (slot != last) != step.fresh {
			t.Errorf("%s: ran on a new solver %v, want %v", step.what, slot != last, step.fresh)
		}
		if len(tests) == 0 || out.Solver.SatCalls == 0 {
			t.Errorf("%s: %d tests from %d searches", step.what, len(tests), out.Solver.SatCalls)
		}
		last = slot
	}
}
