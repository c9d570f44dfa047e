// Package mtrace is a software-simulated, access-traced shared memory. It
// plays the role of the paper's qemu-based MTRACE (§5.3): kernel
// implementations under test perform all of their state accesses through
// tracked cells, and after running a test case's operations on distinct
// simulated cores, the tracer reports every access conflict — a cell
// written by one core and read or written by another — along with the
// cell's name, which stands in for MTRACE's DWARF-resolved C types.
//
// A cell models one cache line: accesses to the same cell from different
// cores conflict regardless of byte offsets, mirroring cache-line-granular
// coherence. Implementations decide cell placement, so false sharing is
// expressible (two fields in one cell) and avoidable (padding = separate
// cells), just as on real hardware.
//
// Conflict detection is online, like the real MTRACE's hypercall-driven
// analysis: each cell carries the epoch of its last touch plus writer and
// reader core bitmasks, updated inline on every traced access, so a traced
// region's verdict is a counter compare and Start is an epoch bump — no
// access log is appended or scanned. The detailed per-access log the
// coherence simulator replays (see Accesses) is opt-in via LogAccesses.
//
// The memory also supports nested snapshot/reset regions (Snapshot, Reset,
// Pop): inside a region every first write to a cell journals its old value,
// and Reset undoes the region's writes, which is how the checker replays
// many tests against one kernel instance instead of rebuilding it per test.
// A map an implementation keeps is a Map, whose lookups trace absence too,
// and a plain field is set through SetVar; both roll back the same way.
package mtrace

import (
	"fmt"
	"math/bits"
	"sort"
)

// maxCores bounds the simulated core numbers the conflict bitmasks can
// represent; it covers scale.NCores with headroom.
const maxCores = 128

// coreset is a fixed-width bitmask over simulated core numbers.
type coreset [maxCores / 64]uint64

func (s *coreset) add(core int) { s[core>>6] |= 1 << (core & 63) }

func (s coreset) empty() bool { return s[0]|s[1] == 0 }

// single reports whether exactly one bit is set.
func (s coreset) single() bool {
	switch {
	case s[1] == 0:
		return s[0] != 0 && s[0]&(s[0]-1) == 0
	case s[0] == 0:
		return s[1]&(s[1]-1) == 0
	}
	return false
}

// minus returns the cores in s that are not in o.
func (s coreset) minus(o coreset) coreset {
	return coreset{s[0] &^ o[0], s[1] &^ o[1]}
}

// cores lists the set bits in ascending order.
func (s coreset) cores() []int {
	var out []int
	for w, word := range s {
		for ; word != 0; word &= word - 1 {
			out = append(out, w*64+bits.TrailingZeros64(word))
		}
	}
	return out
}

// Memory is an allocator of traced cells plus the access recorder.
// It is not safe for concurrent use: conflict checking runs operations
// sequentially on simulated cores, which is exactly how the paper's MTRACE
// executes test cases (it logs accesses and analyzes them afterward).
type Memory struct {
	recording bool
	logging   bool
	nextID    int
	accesses  []Access

	// Online conflict state: the current trace epoch, the cells touched in
	// it (for lazy Conflicts materialization), and the conflicted-cell
	// count that decides ConflictFree without any scan.
	epoch   uint64
	touched []*Cell
	nconf   int

	// Snapshot/reset journal: marks delimit nested regions; undo holds
	// journaled old cell values; hooks names, once per record, the owner of
	// each structural undo record a Map's Set or a SetVar made. jepoch
	// dedups journaling to one entry per cell per region.
	jepoch uint64
	undo   []undoEntry
	hooks  []undoer
	marks  []mark
}

// An undoer keeps undo records in its own log; undo reverts the newest.
type undoer interface{ undo() }

// undoFunc is SetVar's record, its own owner.
type undoFunc func()

func (f undoFunc) undo() { f() }

type undoEntry struct {
	cell *Cell
	v    int64
}

type mark struct {
	undo  int
	hooks int
}

// NewMemory returns an empty traced memory.
func NewMemory() *Memory { return &Memory{} }

// Access records one read or write of a cell by a core.
type Access struct {
	Cell  *Cell
	Core  int
	Write bool
}

// Cell is one traced cache line holding an int64 payload. Composite state
// is built from multiple cells; implementations pick the granularity.
type Cell struct {
	mem  *Memory
	id   int
	name string
	v    int64

	// Conflict state for the epoch the cell was last touched in; stale
	// (epoch != mem.epoch) state is reset lazily on first touch.
	epoch      uint64
	writers    coreset
	readers    coreset
	conflicted bool

	// jepoch is the journal epoch of the cell's last journaled write.
	jepoch uint64
}

// NewCell allocates a traced cell. The name should identify the data
// structure and field (e.g. "dentry[f0].refcnt") — it is what conflict
// reports show, like MTRACE's type+field output.
func (m *Memory) NewCell(name string, init int64) *Cell {
	m.nextID++
	return &Cell{mem: m, id: m.nextID, name: name, v: init}
}

// NewCellf allocates a traced cell with a formatted name.
func (m *Memory) NewCellf(init int64, format string, args ...any) *Cell {
	return m.NewCell(fmt.Sprintf(format, args...), init)
}

// Name returns the cell's diagnostic name.
func (c *Cell) Name() string { return c.name }

// ID returns the cell's unique id within its Memory; the coherence
// simulator uses it as the cache-line identity when replaying traces.
func (c *Cell) ID() int { return c.id }

// Load reads the cell from the given core.
func (c *Cell) Load(core int) int64 {
	c.record(core, false)
	return c.v
}

// Store writes the cell from the given core.
func (c *Cell) Store(core int, v int64) {
	c.record(core, true)
	c.journal()
	c.v = v
}

// Add adds delta to the cell (a read-modify-write) and returns the new
// value.
func (c *Cell) Add(core int, delta int64) int64 {
	c.record(core, false)
	c.record(core, true)
	c.journal()
	c.v += delta
	return c.v
}

// Peek reads the cell without recording an access. Use only outside traced
// regions (setup and verification code).
func (c *Cell) Peek() int64 { return c.v }

// Poke writes the cell without recording an access. Use only outside traced
// regions. Pokes are journaled like Stores, so setup applied inside a
// snapshot region is undone by Reset.
func (c *Cell) Poke(v int64) {
	c.journal()
	c.v = v
}

func (c *Cell) record(core int, write bool) {
	m := c.mem
	if !m.recording {
		return
	}
	if m.logging {
		m.accesses = append(m.accesses, Access{Cell: c, Core: core, Write: write})
	}
	if c.epoch != m.epoch {
		c.epoch = m.epoch
		c.writers, c.readers = coreset{}, coreset{}
		c.conflicted = false
		m.touched = append(m.touched, c)
	}
	if write {
		c.writers.add(core)
	} else {
		c.readers.add(core)
	}
	// A cell conflicts when some core wrote it and a different core read
	// or wrote it: more than one writer, or any reader outside the single
	// writer's bit.
	if !c.conflicted && !c.writers.empty() &&
		(!c.writers.single() || !c.readers.minus(c.writers).empty()) {
		c.conflicted = true
		m.nconf++
	}
}

// journal records the cell's value once per snapshot region, so Reset can
// restore it. A no-op outside snapshot regions.
func (c *Cell) journal() {
	m := c.mem
	if len(m.marks) == 0 || c.jepoch == m.jepoch {
		return
	}
	c.jepoch = m.jepoch
	m.undo = append(m.undo, undoEntry{cell: c, v: c.v})
}

// Start begins a fresh traced region (the test hypercall): an epoch bump
// invalidates every cell's conflict state lazily, nothing is scanned or
// cleared per cell.
func (m *Memory) Start() {
	m.epoch++
	m.touched = m.touched[:0]
	m.nconf = 0
	m.accesses = m.accesses[:0]
	m.recording = true
}

// Stop ends recording.
func (m *Memory) Stop() { m.recording = false }

// LogAccesses switches the per-access log on or off. The log exists for
// consumers that replay access sequences (the coherence simulator); the
// conflict checker itself never needs it, so it is off by default and the
// CHECK hot path pays nothing for it.
func (m *Memory) LogAccesses(on bool) { m.logging = on }

// Accesses returns a copy of the recorded access log (empty unless
// LogAccesses(true) was set before the traced region ran). It is a copy
// because the internal buffer is truncated and overwritten in place by the
// next Start; callers routinely hold the result across traced regions.
func (m *Memory) Accesses() []Access {
	if len(m.accesses) == 0 {
		return nil
	}
	out := make([]Access, len(m.accesses))
	copy(out, m.accesses)
	return out
}

// Conflict describes a cell that was written by one core and touched by
// another during the traced region.
type Conflict struct {
	// CellName identifies the shared data.
	CellName string
	// Writers and Readers list the cores that wrote/read the cell.
	Writers []int
	Readers []int
}

// Conflicts returns every conflicted cell of the last traced region,
// sorted by name. A cell conflicts when some core wrote it and a different
// core read or wrote it. The detailed report is materialized lazily from
// the touched-cell list — the common conflict-free region returns nil
// without any work.
func (m *Memory) Conflicts() []Conflict {
	if m.nconf == 0 {
		return nil
	}
	out := make([]Conflict, 0, m.nconf)
	for _, c := range m.touched {
		if !c.conflicted {
			continue
		}
		out = append(out, Conflict{
			CellName: c.name,
			Writers:  c.writers.cores(),
			Readers:  c.readers.cores(),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].CellName < out[j].CellName })
	return out
}

// ConflictFree reports whether the traced region had no access conflicts.
// It is a counter compare: conflicts are detected online as accesses are
// recorded.
func (m *Memory) ConflictFree() bool { return m.nconf == 0 }

func (c Conflict) String() string {
	return fmt.Sprintf("%s (writers %v, readers %v)", c.CellName, c.Writers, c.Readers)
}

// Snapshot opens a nested snapshot region: every subsequent write (Store,
// Add, Poke) journals the cell's prior value once, and every Map Set and
// SetVar records what it replaced. Reset restores the state at the
// matching Snapshot. Regions nest; Pop merges the innermost region into
// its parent without restoring.
func (m *Memory) Snapshot() {
	m.marks = append(m.marks, mark{undo: len(m.undo), hooks: len(m.hooks)})
	m.jepoch++
}

// Reset undoes every journaled write, then every Map Set and SetVar, of the
// innermost snapshot region, newest first, leaving the region open so the
// next test can run from the same state. It must not be called inside a
// traced region (Reset itself is untraced by design).
func (m *Memory) Reset() {
	if len(m.marks) == 0 {
		panic("mtrace: Reset without Snapshot")
	}
	mk := m.marks[len(m.marks)-1]
	for i := len(m.undo) - 1; i >= mk.undo; i-- {
		e := m.undo[i]
		e.cell.v = e.v
	}
	m.undo = m.undo[:mk.undo]
	for i := len(m.hooks) - 1; i >= mk.hooks; i-- {
		m.hooks[i].undo()
	}
	m.hooks = m.hooks[:mk.hooks]
	// New journal epoch: cells journaled in the finished generation must
	// journal again on their next write.
	m.jepoch++
}

// Pop closes the innermost snapshot region, merging its journal entries
// and hooks into the parent region instead of restoring them: a later
// Reset of the parent undoes both generations in reverse order, so the
// oldest value wins, exactly as if the inner region never existed.
func (m *Memory) Pop() {
	if len(m.marks) == 0 {
		panic("mtrace: Pop without Snapshot")
	}
	m.marks = m.marks[:len(m.marks)-1]
}

// onReset registers u as the owner of a structural undo record it has just
// logged, on the innermost snapshot region. Reset reverts records
// newest-first after restoring cell values.
func (m *Memory) onReset(u undoer) { m.hooks = append(m.hooks, u) }

// SetVar sets *p = v for a variable or field an implementation keeps beside
// its cells. Inside a snapshot region Reset puts the previous value back;
// outside one this is a plain assignment, and builds no record.
func SetVar[T any](m *Memory, p *T, v T) {
	if len(m.marks) != 0 {
		old := *p
		m.onReset(undoFunc(func() { *p = old }))
	}
	*p = v
}
