// Package coherence is a MESI-like cache-coherence cost simulator. The
// paper's scalability argument (§1) is exactly that, on MESI hardware,
// conflict-free memory accesses scale linearly while writes to shared cache
// lines serialize on ownership transfers; this package makes that model
// executable so the Figure 7 benchmarks can be regenerated without an
// 80-core machine.
//
// A workload is, per core, a cyclic sequence of operations, each a list of
// cache-line accesses (captured by replaying traced-kernel operations).
// The simulator charges one cycle for a local cache hit, a fixed transfer
// latency for fetching a line another core owns or has modified, and
// serializes ownership transfers per line — the directory grants exclusive
// ownership one requester at a time, which is what collapses throughput
// when many cores write one line.
package coherence

import "container/heap"

// Access is one cache-line touch.
type Access struct {
	// Line identifies the cache line.
	Line int
	// Write distinguishes writes (need exclusive ownership).
	Write bool
}

// Op is one operation's access sequence.
type Op []Access

// CoreTrace is the cyclic operation sequence one core executes.
type CoreTrace []Op

// Opts tunes the cost model. Zero fields take defaults matching the rough
// ratios of a large x86 NUMA machine: L1 hit 1 cycle, cross-socket cache
// line transfer ~100 cycles.
type Opts struct {
	// HitCost is the cost of a local cache hit (default 1).
	HitCost int64
	// TransferCost is the cost of acquiring a line from a remote cache
	// (default 100); transfers of one line serialize.
	TransferCost int64
	// MissCost is the cost of a non-serialized shared-mode fill from a
	// clean copy (default 50).
	MissCost int64
	// Duration is the simulated horizon in cycles (default 1_000_000).
	Duration int64
	// CoresPerSocket, when nonzero, models the paper's testbed topology
	// (8 sockets x 10 cores, socket-shared L3): transfers between cores
	// of one socket cost IntraSocketCost instead of TransferCost.
	CoresPerSocket int
	// IntraSocketCost is the same-socket transfer cost (default
	// TransferCost/3, the rough on-die vs cross-socket latency ratio).
	IntraSocketCost int64
}

func (o Opts) withDefaults() Opts {
	if o.HitCost == 0 {
		o.HitCost = 1
	}
	if o.TransferCost == 0 {
		o.TransferCost = 100
	}
	if o.MissCost == 0 {
		o.MissCost = 50
	}
	if o.Duration == 0 {
		o.Duration = 1_000_000
	}
	if o.IntraSocketCost == 0 {
		o.IntraSocketCost = o.TransferCost / 3
	}
	return o
}

// transferCost returns the ownership-transfer latency between two cores
// under the configured topology. A previous owner of -1 (no owner) pays the
// full cost: the line comes from memory or a remote directory.
func (o Opts) transferCost(from, to int) int64 {
	if o.CoresPerSocket <= 0 || from < 0 {
		return o.TransferCost
	}
	if from/o.CoresPerSocket == to/o.CoresPerSocket {
		return o.IntraSocketCost
	}
	return o.TransferCost
}

// Result reports per-core completed operations over the simulated horizon.
type Result struct {
	// Ops[i] counts operations core i completed.
	Ops []int64
	// Duration echoes the simulated horizon.
	Duration int64
}

// total sums completed operations.
func (r Result) total() int64 {
	var t int64
	for _, n := range r.Ops {
		t += n
	}
	return t
}

// PerCorePerCycle is the throughput metric Figure 7 plots (operations per
// unit time per core).
func (r Result) PerCorePerCycle() float64 {
	if len(r.Ops) == 0 || r.Duration == 0 {
		return 0
	}
	return float64(r.total()) / float64(r.Duration) / float64(len(r.Ops))
}

// lineState tracks MESI-ish ownership of a line.
type lineState struct {
	owner    int  // core holding the line exclusively (-1 none)
	dirty    bool // owner has modified it
	sharers  map[int]bool
	nextFree int64 // serialization point for ownership transfers
}

type coreItem struct {
	core int
	time int64
}

type coreHeap []coreItem

func (h coreHeap) Len() int           { return len(h) }
func (h coreHeap) Less(i, j int) bool { return h[i].time < h[j].time }
func (h coreHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *coreHeap) Push(x any)        { *h = append(*h, x.(coreItem)) }
func (h *coreHeap) Pop() any          { old := *h; n := len(old); it := old[n-1]; *h = old[:n-1]; return it }

// Simulate runs each core's cyclic trace until the horizon and reports
// completed operations. Cores advance in simulated-time order, so a
// contended line's transfers interleave realistically.
func Simulate(traces []CoreTrace, opts Opts) Result {
	opts = opts.withDefaults()
	lines := map[int]*lineState{}
	line := func(id int) *lineState {
		l, ok := lines[id]
		if !ok {
			l = &lineState{owner: -1, sharers: map[int]bool{}}
			lines[id] = l
		}
		return l
	}

	times := make([]int64, len(traces))
	opIdx := make([]int, len(traces))
	ops := make([]int64, len(traces))

	h := &coreHeap{}
	for c, tr := range traces {
		if len(tr) > 0 {
			heap.Push(h, coreItem{core: c, time: 0})
		}
	}
	for h.Len() > 0 {
		it := heap.Pop(h).(coreItem)
		c := it.core
		t := times[c]
		if t >= opts.Duration {
			continue
		}
		op := traces[c][opIdx[c]%len(traces[c])]
		opIdx[c]++
		for _, a := range op {
			l := line(a.Line)
			t += cost(l, c, a.Write, t, opts)
		}
		times[c] = t
		ops[c]++
		if t < opts.Duration {
			heap.Push(h, coreItem{core: c, time: t})
		}
	}
	return Result{Ops: ops, Duration: opts.Duration}
}

// cost charges one access and updates the line's coherence state.
func cost(l *lineState, c int, write bool, now int64, opts Opts) int64 {
	if write {
		if l.owner == c && len(l.sharers) == 0 {
			l.dirty = true
			return opts.HitCost // already exclusive
		}
		// Acquire exclusive ownership: serialize on the line.
		start := now
		if l.nextFree > start {
			start = l.nextFree
		}
		end := start + opts.transferCost(l.owner, c)
		l.nextFree = end
		l.owner = c
		l.dirty = true
		l.sharers = map[int]bool{}
		return end - now
	}
	// Read.
	if l.owner == c || l.sharers[c] {
		return opts.HitCost
	}
	if l.owner >= 0 && l.dirty {
		// Fetch the dirty copy: serialized downgrade to shared.
		start := now
		if l.nextFree > start {
			start = l.nextFree
		}
		end := start + opts.transferCost(l.owner, c)
		l.nextFree = end
		l.sharers[l.owner] = true
		l.sharers[c] = true
		l.owner = -1
		l.dirty = false
		return end - now
	}
	// Clean shared fill: concurrent, no serialization.
	l.sharers[c] = true
	return opts.MissCost
}
