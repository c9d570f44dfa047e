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
// posix pairs, each on a solver of its own (as sweep.PairTests builds
// them), so what a Solver remembers never outlives its pair. satcalls and
// memohits are per pass.
//
//	go test -run '^$' -bench AnalyzePosix -benchtime 3x ./internal/analyzer
func BenchmarkAnalyzePosix(b *testing.B) {
	pairs := pairsOf(model.Spec)
	var searches, hits int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range pairs {
			solver := &sym.Solver{}
			r, err := AnalyzePairCtx(context.Background(), model.Spec, p[0], p[1], Options{Solver: solver})
			if err != nil {
				b.Fatal(err)
			}
			if u := r.Unknown(); u != 0 {
				b.Fatalf("%s x %s: %d unknown paths", r.OpA, r.OpB, u)
			}
			st := solver.Stats()
			searches += st.SatCalls
			hits += st.MemoHits
		}
	}
	b.ReportMetric(float64(searches)/float64(b.N), "satcalls")
	b.ReportMetric(float64(hits)/float64(b.N), "memohits")
}
