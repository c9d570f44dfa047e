package analyzer

import (
	"context"
	"testing"

	"repro/internal/model"
	"repro/internal/spec"
	"repro/internal/sym"
)

// pairsOf enumerates the unordered pairs of a spec's operations, earlier
// op first, as a sweep does.
func pairsOf(sp spec.Spec) [][2]*spec.Op {
	var out [][2]*spec.Op
	for i, a := range sp.Ops() {
		for _, b := range sp.Ops()[:i+1] {
			out = append(out, [2]*spec.Op{b, a})
		}
	}
	return out
}

// BenchmarkAnalyzePosix is ANALYZE as a cold sweep pays for it: all 171
// posix pairs on one solver, forgotten at every pair as a sweep worker's
// is, so what it remembers never outlives its pair. satcalls and memohits
// are per pass.
//
//	go test -run '^$' -bench AnalyzePosix -benchtime 3x ./internal/analyzer
func BenchmarkAnalyzePosix(b *testing.B) {
	pairs := pairsOf(model.Spec)
	solver := &sym.Solver{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		analyzePosixPass(b, pairs, solver)
	}
	st := solver.Stats()
	b.ReportMetric(float64(st.SatCalls)/float64(b.N), "satcalls")
	b.ReportMetric(float64(st.MemoHits)/float64(b.N), "memohits")
}

// analyzePosixPass analyzes every pair once on solver, forgetting it at
// every pair, and fails tb on an error or an unknown path.
func analyzePosixPass(tb testing.TB, pairs [][2]*spec.Op, solver *sym.Solver) {
	for _, p := range pairs {
		solver.Forget()
		r, err := AnalyzePairCtx(context.Background(), model.Spec, p[0], p[1], Options{Solver: solver})
		if err != nil {
			tb.Fatal(err)
		}
		if u := r.Unknown(); u != 0 {
			tb.Fatalf("%s x %s: %d unknown paths", r.OpA, r.OpB, u)
		}
	}
}

// TestAnalyzePosixQuestionCount pins the number of questions ANALYZE asks
// in BenchmarkAnalyzePosix's pass over the 171 posix pairs: solver calls
// plus memo hits. A change that only makes the engine faster leaves it
// where it is. The split between the two may move by one from run to run:
// a weakly interned node rebuilt after a collection gets a new id and
// misses the memo.
func TestAnalyzePosixQuestionCount(t *testing.T) {
	pairs := pairsOf(model.Spec)
	if len(pairs) != 171 {
		t.Fatalf("%d posix pairs, want 171", len(pairs))
	}
	solver := &sym.Solver{}
	analyzePosixPass(t, pairs, solver)
	st := solver.Stats()
	if got := st.SatCalls + st.MemoHits; got != 33031 {
		t.Errorf("ANALYZE asked %d questions over the posix pairs (%d solver calls, %d memo hits), want 33031", got, st.SatCalls, st.MemoHits)
	}
}
