package testgen

import (
	"context"
	"testing"

	"repro/internal/analyzer"
	"repro/internal/model"
)

// posixAnalyses runs ANALYZE over the 171 posix pairs, earlier op first as
// a sweep orients them.
func posixAnalyses(tb testing.TB) []analyzer.PairResult {
	tb.Helper()
	var out []analyzer.PairResult
	ops := model.Spec.Ops()
	for i, a := range ops {
		for _, b := range ops[:i+1] {
			pr, err := analyzer.AnalyzePairCtx(context.Background(), model.Spec, b, a, analyzer.Options{})
			if err != nil {
				tb.Fatal(err)
			}
			out = append(out, pr)
		}
	}
	return out
}

// generateAll is one TESTGEN pass over analyses, summing the leaf's counts.
func generateAll(analyses []analyzer.PairResult) (n leafCounts, kept int) {
	for _, pr := range analyses {
		tests, _, c := generate(model.Spec, pr, Options{})
		n.visited += c.visited
		n.materialized += c.materialized
		kept += len(tests)
	}
	return n, kept
}

// BenchmarkGeneratePosix is TESTGEN as a cold sweep pays for it: every
// commutative path of all 171 posix pairs, ANALYZE outside the timer. The
// three counts are per pass: models the enumeration reached, models of a new
// isomorphism class (materialised), and tests whose content was new (kept).
//
//	go test -run '^$' -bench GeneratePosix -benchtime 3x ./internal/testgen
func BenchmarkGeneratePosix(b *testing.B) {
	analyses := posixAnalyses(b)
	var n leafCounts
	var kept int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n, kept = generateAll(analyses)
	}
	b.ReportMetric(float64(n.visited), "visited")
	b.ReportMetric(float64(n.materialized), "materialised")
	b.ReportMetric(float64(kept), "kept")
}

// TestGeneratePosixLeafCounts pins what BenchmarkGeneratePosix reports, so
// a change to the enumeration, to the class signature or to the content
// dedup has to say so here. Half of what is materialised is a duplicate by
// content; that it still counts toward MaxTestsPerPath is part of the
// corpus contract (testdata/corpus.digest).
func TestGeneratePosixLeafCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("full ANALYZE+TESTGEN of posix")
	}
	n, kept := generateAll(posixAnalyses(t))
	if n.visited != 20767 || n.materialized != 12791 || kept != 6413 {
		t.Errorf("posix leaf counts: visited %d, materialised %d, kept %d; want 20767, 12791, 6413",
			n.visited, n.materialized, kept)
	}
}
