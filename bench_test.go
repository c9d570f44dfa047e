// Package repro's root benchmarks regenerate the paper's Figure 7 and its
// supporting measurements (the Figure 6 pipeline is measured end to end by
// the cold_sweep workload under bench/):
//
//   - BenchmarkFigure7a/b/c replay traced workloads through the MESI
//     coherence simulator at 80 cores and report per-core throughput,
//   - BenchmarkSequentialFstat* measure §7.2's single-core cost of
//     scalability (Refcache reconciliation vs a shared counter),
//   - BenchmarkReal* corroborate the simulator's shapes with real atomics
//     on the host's cores (shared cache line vs per-core lines),
//   - BenchmarkAblation* quantify the design choices DESIGN.md calls out
//     (hash-directory bucket counts, coherence transfer costs).
//
// Reported custom metrics make the regenerated "rows" visible in benchmark
// output: conflictfree_pct, percore_ops_per_Mcycle, speedup ratios.
package repro_test

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/coherence"
	"repro/internal/eval"
	"repro/internal/kernel"
	"repro/internal/kernel/unix"
	"repro/internal/mtrace"
	"repro/internal/scale"
)

func benchCurvePoint(b *testing.B, f func() float64) {
	var v float64
	for i := 0; i < b.N; i++ {
		v = f()
	}
	b.ReportMetric(v, "percore_ops_per_Mcycle")
}

// Figure 7(a): statbench at 80 cores, three st_nlink representations.
func BenchmarkFigure7aStatbenchFstatx(b *testing.B) {
	benchCurvePoint(b, func() float64 {
		return eval.Statbench(eval.StatFstatx, []int{80}).PerSec[0]
	})
}

func BenchmarkFigure7aStatbenchRefcache(b *testing.B) {
	benchCurvePoint(b, func() float64 {
		return eval.Statbench(eval.StatRefcache, []int{80}).PerSec[0]
	})
}

func BenchmarkFigure7aStatbenchSharedCount(b *testing.B) {
	benchCurvePoint(b, func() float64 {
		return eval.Statbench(eval.StatShared, []int{80}).PerSec[0]
	})
}

// Figure 7(b): openbench at 80 cores, any-FD vs lowest-FD.
func BenchmarkFigure7bOpenbenchAnyFD(b *testing.B) {
	benchCurvePoint(b, func() float64 { return eval.Openbench(true, []int{80}).PerSec[0] })
}

func BenchmarkFigure7bOpenbenchLowestFD(b *testing.B) {
	benchCurvePoint(b, func() float64 { return eval.Openbench(false, []int{80}).PerSec[0] })
}

// Figure 7(c): the mail server at 80 cores, commutative vs regular APIs.
func BenchmarkFigure7cMailCommutative(b *testing.B) {
	benchCurvePoint(b, func() float64 { return eval.Mailbench(true, []int{80}).PerSec[0] })
}

func BenchmarkFigure7cMailRegular(b *testing.B) {
	benchCurvePoint(b, func() float64 { return eval.Mailbench(false, []int{80}).PerSec[0] })
}

// §7.2's sequential-performance observation: with Refcache, a single-core
// fstat must reconcile per-core deltas and becomes several times more
// expensive than with a shared count (the paper measures 3.9x at 80 cores'
// worth of Refcache caches).
func sequentialFstat(b *testing.B, shared bool) {
	d := unix.SV6
	if shared {
		d = unix.SV6SharedLinkCount
	}
	k := unix.New(d)
	setup := kernel.Setup{
		Files:  []kernel.SetupFile{{Name: "f0", Inum: 1}},
		Inodes: []kernel.SetupInode{{Inum: 1, Len: 1}},
		FDs:    []kernel.SetupFD{{Proc: 0, FD: 0, Inum: 1}},
	}
	k.Apply(setup)
	call := kernel.Call{Op: "fstat", Args: map[string]int64{"fd": 0}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r := k.Exec(0, call); r.Code != 0 {
			b.Fatal(r)
		}
	}
}

func BenchmarkSequentialFstatRefcache(b *testing.B)    { sequentialFstat(b, false) }
func BenchmarkSequentialFstatSharedCount(b *testing.B) { sequentialFstat(b, true) }

// Real-hardware corroboration (§7.1's premise): a single modified shared
// cache line collapses scalability on actual cores, while per-core lines
// scale. Run with -cpu 1,2,4,... to see the divergence.
func BenchmarkRealSharedCounter(b *testing.B) {
	var c scale.RealSharedCounter
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Inc(1)
		}
	})
}

func BenchmarkRealRefcacheInc(b *testing.B) {
	rc := scale.NewRealRefcache(runtime.GOMAXPROCS(0)*2, 0)
	var slot atomic.Int64
	b.RunParallel(func(pb *testing.PB) {
		s := int(slot.Add(1)-1) % (runtime.GOMAXPROCS(0) * 2)
		for pb.Next() {
			rc.Inc(s, 1)
		}
	})
}

func BenchmarkRealLowestFD(b *testing.B) {
	t := scale.NewRealLowestFD(1 << 16)
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			fd := t.Alloc()
			t.Free(fd)
		}
	})
}

func BenchmarkRealAnyFD(b *testing.B) {
	t := scale.NewRealAnyFD(runtime.GOMAXPROCS(0) * 2)
	var slot atomic.Int64
	b.RunParallel(func(pb *testing.PB) {
		s := int(slot.Add(1)-1) % (runtime.GOMAXPROCS(0) * 2)
		for pb.Next() {
			t.Free(t.Alloc(s))
		}
	})
}

// Ablation: the hash directory's bucket count decides how often distinct
// names collide into one bucket and conflict. It does not cost memory:
// buckets are built when first selected, so a directory's footprint
// follows the names it has seen, not the count. Reported metric is the
// conflict-free percentage of concurrent distinct-name creates.
func BenchmarkAblationDirBuckets(b *testing.B) {
	for _, buckets := range []int{1, 16, 64, 1024} {
		b.Run(fmt.Sprintf("buckets=%d", buckets), func(b *testing.B) {
			free := 0
			trials := 0
			for i := 0; i < b.N; i++ {
				mem := newTracedDirMem(buckets)
				free, trials = mem.run()
			}
			b.ReportMetric(100*float64(free)/float64(trials), "conflictfree_pct")
		})
	}
}

// newTracedDirMem builds a directory with the given bucket count and
// measures conflict-freedom of pairwise distinct-name inserts.
type tracedDir struct {
	buckets int
}

func newTracedDirMem(buckets int) tracedDir { return tracedDir{buckets: buckets} }

func (td tracedDir) run() (free, trials int) {
	for a := int64(0); a < 8; a++ {
		for bn := a + 1; bn < 8; bn++ {
			mem := mtrace.NewMemory()
			d := scale.NewHashDir(mem, "dir", td.buckets)
			mem.Start()
			d.Insert(0, a, 100)
			d.Insert(1, bn, 200)
			mem.Stop()
			trials++
			if mem.ConflictFree() {
				free++
			}
		}
	}
	return free, trials
}

// Ablation: the coherence simulator's transfer-cost parameter controls how
// hard contention collapses; the contended/free throughput ratio is the
// reported metric.
func BenchmarkAblationTransferCost(b *testing.B) {
	for _, cost := range []int64{10, 100, 400} {
		b.Run(fmt.Sprintf("transfer=%d", cost), func(b *testing.B) {
			var ratio float64
			for i := 0; i < b.N; i++ {
				n := 16
				shared := make([]coherence.CoreTrace, n)
				private := make([]coherence.CoreTrace, n)
				for c := 0; c < n; c++ {
					shared[c] = coherence.CoreTrace{coherence.Op{{Line: 0, Write: true}}}
					private[c] = coherence.CoreTrace{coherence.Op{{Line: c + 1, Write: true}}}
				}
				opts := coherence.Opts{TransferCost: cost, Duration: 200_000}
				rs := coherence.Simulate(shared, opts)
				rp := coherence.Simulate(private, opts)
				ratio = rp.PerCorePerCycle() / rs.PerCorePerCycle()
			}
			b.ReportMetric(ratio, "free_over_contended")
		})
	}
}
