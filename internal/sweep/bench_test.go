package sweep

import (
	"runtime"
	"testing"
)

// benchConfig sweeps a 6-pair universe on both kernels with the given
// worker count and no cache, so every iteration does the full pipeline.
func benchSweep(b *testing.B, workers int) {
	ops, kernels := testOps(b), testKernels()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := runSweep(Config{Ops: ops, Kernels: kernels, Workers: workers}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSweepSerial is the -j 1 baseline the acceptance criteria compare
// against: run with
//
//	go test -bench Sweep -benchtime 3x ./internal/sweep
func BenchmarkSweepSerial(b *testing.B)   { benchSweep(b, 1) }
func BenchmarkSweepParallel(b *testing.B) { benchSweep(b, runtime.NumCPU()) }

// BenchmarkSweepWarmCache measures the incremental path: every pair served
// from a pre-populated cache.
func BenchmarkSweepWarmCache(b *testing.B) {
	ops, kernels := testOps(b), testKernels()
	cache, err := OpenCache(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	cfg := Config{Ops: ops, Kernels: kernels, Cache: cache}
	if _, err := runSweep(cfg); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := runSweep(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if n := res.Cache.Misses(); n != 0 {
			b.Fatalf("warm run missed %d entries", n)
		}
	}
}

// BenchmarkSweepWarmSubset measures the kernel-subset rerun the two-tier
// cache makes incremental: the cache is populated by a both-kernel sweep,
// then one kernel is swept against it. Both tiers serve, so this should
// track BenchmarkSweepWarmCache (warm-subset ≈ warm-full) rather than the
// cold pipeline.
func BenchmarkSweepWarmSubset(b *testing.B) {
	ops, kernels := testOps(b), testKernels()
	cache, err := OpenCache(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	if _, err := runSweep(Config{Ops: ops, Kernels: kernels, Cache: cache}); err != nil {
		b.Fatal(err)
	}
	sub := Config{Ops: ops, Kernels: kernels[1:], Cache: cache}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := runSweep(sub)
		if err != nil {
			b.Fatal(err)
		}
		if n := res.Cache.Misses(); n != 0 {
			b.Fatalf("warm subset run missed %d entries", n)
		}
	}
}
