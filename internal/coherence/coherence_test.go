package coherence

import (
	"testing"
	"testing/quick"
)

// conflict-free workload: each core writes its own line.
func disjointTraces(n int) []CoreTrace {
	traces := make([]CoreTrace, n)
	for c := 0; c < n; c++ {
		traces[c] = CoreTrace{Op{{Line: c, Write: true}}}
	}
	return traces
}

// contended workload: every core writes line 0.
func contendedTraces(n int) []CoreTrace {
	traces := make([]CoreTrace, n)
	for c := 0; c < n; c++ {
		traces[c] = CoreTrace{Op{{Line: 0, Write: true}}}
	}
	return traces
}

func TestConflictFreeScalesLinearly(t *testing.T) {
	r1 := Simulate(disjointTraces(1), Opts{})
	r8 := Simulate(disjointTraces(8), Opts{})
	per1 := r1.PerCorePerCycle()
	per8 := r8.PerCorePerCycle()
	if per8 < per1*0.95 {
		t.Errorf("conflict-free per-core throughput degraded: 1 core %v, 8 cores %v", per1, per8)
	}
}

func TestContendedLineCollapses(t *testing.T) {
	r1 := Simulate(contendedTraces(1), Opts{})
	r16 := Simulate(contendedTraces(16), Opts{})
	per1 := r1.PerCorePerCycle()
	per16 := r16.PerCorePerCycle()
	// With 16 cores serializing on one line, per-core throughput must
	// collapse by roughly the transfer/hit ratio; demand at least 5x.
	if per16 > per1/5 {
		t.Errorf("contended per-core throughput did not collapse: 1 core %v, 16 cores %v", per1, per16)
	}
	// Aggregate throughput must not exceed the line's transfer rate.
	maxTotal := r16.Duration / 100
	if r16.total() > maxTotal+int64(len(r16.Ops)) {
		t.Errorf("total %d exceeds line transfer capacity %d", r16.total(), maxTotal)
	}
}

func TestSharedReadsScale(t *testing.T) {
	// All cores read line 0 (read-only sharing): after the initial fill,
	// hits all around — near-linear scaling.
	n := 8
	traces := make([]CoreTrace, n)
	for c := 0; c < n; c++ {
		traces[c] = CoreTrace{Op{{Line: 0, Write: false}}}
	}
	r := Simulate(traces, Opts{})
	per := r.PerCorePerCycle()
	r1 := Simulate(traces[:1], Opts{})
	if per < r1.PerCorePerCycle()*0.9 {
		t.Errorf("read sharing should scale: 1 core %v, %d cores %v", r1.PerCorePerCycle(), n, per)
	}
}

func TestWritersAndReadersOnOneLine(t *testing.T) {
	// statbench's shared-counter shape: n/2 cores write line 0 (link/
	// unlink updating st_nlink), n/2 read it (fstat). The line bounces
	// continuously, so every access pays a serialized transfer.
	n := 8
	traces := make([]CoreTrace, n)
	for c := 0; c < n; c++ {
		traces[c] = CoreTrace{Op{{Line: 0, Write: c%2 == 0}}}
	}
	r := Simulate(traces, Opts{})
	per := r.PerCorePerCycle()
	free := Simulate(disjointTraces(n), Opts{})
	if per > free.PerCorePerCycle()/5 {
		t.Errorf("writers+readers on one line should be far below conflict-free: %v vs %v",
			per, free.PerCorePerCycle())
	}
}

func TestSingleWriterManyReadersDegradesSome(t *testing.T) {
	// One writer and seven readers: readers amortize fetches between
	// writes, so throughput sits between fully contended and free.
	n := 8
	traces := make([]CoreTrace, n)
	traces[0] = CoreTrace{Op{{Line: 0, Write: true}}}
	for c := 1; c < n; c++ {
		traces[c] = CoreTrace{Op{{Line: 0, Write: false}}}
	}
	r := Simulate(traces, Opts{})
	per := r.PerCorePerCycle()
	free := Simulate(disjointTraces(n), Opts{}).PerCorePerCycle()
	cont := Simulate(contendedTraces(n), Opts{}).PerCorePerCycle()
	if per >= free || per <= cont {
		t.Errorf("one-writer throughput %v should fall between contended %v and free %v",
			per, cont, free)
	}
}

func TestDeterministic(t *testing.T) {
	a := Simulate(contendedTraces(4), Opts{})
	b := Simulate(contendedTraces(4), Opts{})
	if a.total() != b.total() {
		t.Errorf("simulation not deterministic: %d vs %d", a.total(), b.total())
	}
}

func TestResultAccessors(t *testing.T) {
	r := Result{Ops: []int64{10, 20}, Duration: 100}
	if r.total() != 30 {
		t.Errorf("total = %d", r.total())
	}
	if got := r.PerCorePerCycle(); got != 0.15 {
		t.Errorf("PerCorePerCycle = %v", got)
	}
	if (Result{}).PerCorePerCycle() != 0 {
		t.Error("empty result should yield 0 throughput")
	}
}

// Property: ops completed never exceed duration/hitCost per core, and every
// core makes progress when it has work.
func TestQuickProgressBounds(t *testing.T) {
	f := func(nc uint8, contended bool) bool {
		n := int(nc%8) + 1
		var traces []CoreTrace
		if contended {
			traces = contendedTraces(n)
		} else {
			traces = disjointTraces(n)
		}
		r := Simulate(traces, Opts{Duration: 10_000})
		for _, ops := range r.Ops {
			if ops <= 0 || ops > 10_000 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Socket topology: with the paper's 8x10 layout, contention among cores of
// one socket costs less than cross-socket contention, so a socket-local
// workload outperforms the same workload spread across sockets.
func TestSocketTopology(t *testing.T) {
	opts := Opts{CoresPerSocket: 10, Duration: 200_000}
	// 4 cores contending on one line, all within socket 0.
	local := make([]CoreTrace, 4)
	for c := range local {
		local[c] = CoreTrace{Op{{Line: 0, Write: true}}}
	}
	rLocal := Simulate(local, opts)
	// 4 cores contending on one line, one per socket (cores 0,10,20,30).
	spread := make([]CoreTrace, 31)
	for _, c := range []int{0, 10, 20, 30} {
		spread[c] = CoreTrace{Op{{Line: 0, Write: true}}}
	}
	rSpread := Simulate(spread, opts)
	if rLocal.total() <= rSpread.total() {
		t.Errorf("socket-local contention (%d ops) should beat cross-socket (%d ops)",
			rLocal.total(), rSpread.total())
	}
}

func TestTransferCostTopologyDefaults(t *testing.T) {
	o := Opts{}.withDefaults()
	if o.transferCost(0, 1) != o.TransferCost {
		t.Error("no topology: always full transfer cost")
	}
	o.CoresPerSocket = 10
	if o.transferCost(0, 5) != o.IntraSocketCost {
		t.Error("same-socket transfer should use the intra-socket cost")
	}
	if o.transferCost(0, 15) != o.TransferCost {
		t.Error("cross-socket transfer should use the full cost")
	}
	if o.transferCost(-1, 3) != o.TransferCost {
		t.Error("unowned lines pay the full fill cost")
	}
}
