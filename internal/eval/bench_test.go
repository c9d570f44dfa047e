package eval

import "testing"

// The Figure 7 benchmarks: each panel's curves at 80 cores, through the
// MESI coherence simulator, reporting per-core throughput.

func benchCurvePoint(b *testing.B, f func() float64) {
	var v float64
	for i := 0; i < b.N; i++ {
		v = f()
	}
	b.ReportMetric(v, "percore_ops_per_Mcycle")
}

// Figure 7(a): statbench at 80 cores, three st_nlink representations.
func BenchmarkFigure7aStatbenchFstatx(b *testing.B) {
	benchCurvePoint(b, func() float64 { return statbench(statFstatx, []int{80}).PerSec[0] })
}

func BenchmarkFigure7aStatbenchRefcache(b *testing.B) {
	benchCurvePoint(b, func() float64 { return statbench(statRefcache, []int{80}).PerSec[0] })
}

func BenchmarkFigure7aStatbenchSharedCount(b *testing.B) {
	benchCurvePoint(b, func() float64 { return statbench(statShared, []int{80}).PerSec[0] })
}

// Figure 7(b): openbench at 80 cores, any-FD vs lowest-FD.
func BenchmarkFigure7bOpenbenchAnyFD(b *testing.B) {
	benchCurvePoint(b, func() float64 { return openbench(true, []int{80}).PerSec[0] })
}

func BenchmarkFigure7bOpenbenchLowestFD(b *testing.B) {
	benchCurvePoint(b, func() float64 { return openbench(false, []int{80}).PerSec[0] })
}

// Figure 7(c): the mail server at 80 cores, commutative vs regular APIs.
func BenchmarkFigure7cMailCommutative(b *testing.B) {
	benchCurvePoint(b, func() float64 { return mailbench(true, []int{80}).PerSec[0] })
}

func BenchmarkFigure7cMailRegular(b *testing.B) {
	benchCurvePoint(b, func() float64 { return mailbench(false, []int{80}).PerSec[0] })
}
