// Package repro's root benchmarks hold the paper's supporting
// measurements beside Figure 7, whose benchmarks internal/eval holds (the
// Figure 6 pipeline is measured end to end by the cold_sweep workload
// under bench/):
//
//   - BenchmarkSequentialFstat* measure §7.2's single-core cost of
//     scalability (Refcache reconciliation vs a shared counter),
//   - BenchmarkAblation* quantify two design parameters: the hash
//     directory's bucket count and the coherence simulator's transfer cost.
//
// Reported custom metrics make the regenerated "rows" visible in benchmark
// output: conflictfree_pct and the contended/free throughput ratio.
package repro_test

import (
	"fmt"
	"testing"

	"repro/internal/coherence"
	"repro/internal/kernel"
	"repro/internal/kernel/unix"
	"repro/internal/mtrace"
	"repro/internal/scale"
)

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
	k.Apply(&unix.Setup{
		Files:  []unix.SetupFile{{Name: 0, Inum: 1}},
		Inodes: []unix.SetupInode{{Inum: 1, Len: 1}},
		FDs:    []unix.SetupFD{{Proc: 0, FD: 0, Inum: 1}},
	})
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
