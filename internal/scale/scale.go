// Package scale implements the scalable-implementation substrates that
// ScaleFS and RadixVM build on (§6.3 of the paper): Refcache-style scalable
// reference counters, per-core identifier allocation, radix arrays, hash
// directories with per-bucket locks and the sv6 pipe's split-cursor FIFO
// (fifo.go) — plus their conventional non-scalable
// counterparts (shared counters, coarse locks) used by the Linux-like
// baseline kernel.
//
// Everything here operates on mtrace cells so the MTRACE checker can decide
// conflict-freedom; package scale also has real concurrent counterparts
// (see real.go) used by the hardware benchmarks.
package scale

import (
	"fmt"

	"repro/internal/mtrace"
)

// NCores is the number of simulated cores traced kernels provision for.
// Conflict tests use two; the Figure 7 curves replay traces for up to 80,
// matching the paper's testbed.
const NCores = 96

// SharedCounter is the conventional counter: one cell, so every increment
// conflicts with every other access — the "shared st_nlink" configuration
// of statbench.
type SharedCounter struct {
	cell *mtrace.Cell
}

// NewSharedCounter allocates a shared counter.
func NewSharedCounter(mem *mtrace.Memory, name string, init int64) *SharedCounter {
	return &SharedCounter{cell: mem.NewCell(name, init)}
}

// Inc adds delta from core.
func (c *SharedCounter) Inc(core int, delta int64) { c.cell.Add(core, delta) }

// Set stores v from core, a write that reads nothing: how Linux's create
// sets a new inode's link count.
func (c *SharedCounter) Set(core int, v int64) { c.cell.Store(core, v) }

// Read returns the value from core.
func (c *SharedCounter) Read(core int) int64 { return c.cell.Load(core) }

// Peek reads without tracing (setup/verification only).
func (c *SharedCounter) Peek() int64 { return c.cell.Peek() }

// Poke writes without tracing (setup only).
func (c *SharedCounter) Poke(v int64) { c.cell.Poke(v) }

// Refcache is a scalable reference counter modeled on Refcache [15]: each
// core holds a private delta cell (its own cache line), so increments and
// decrements are conflict-free across cores. Reading the true value must
// reconcile every per-core delta, which conflicts with concurrent updates —
// the cost statbench's fstat-with-Refcache configuration pays, and the cost
// fstatx avoids by not asking for the link count.
//
// A core's delta cell is born at its first touch, like IDAlloc's counters:
// an unborn delta is a zero one, so construction builds the base cell only
// and a counter nobody reconciles costs the cells of the cores that changed
// it. Read is not lazy: a reader must leave its mark on every core's line
// for a later Inc there to conflict with it, so it bears whatever is missing
// first.
type Refcache struct {
	mem  *mtrace.Memory
	name string
	base *mtrace.Cell
	// deltas[core] is nil until core's first Inc or anyone's first Read; the
	// slice reaches only as far as the highest core born so far.
	deltas []*mtrace.Cell
}

// NewRefcache allocates a Refcache counter.
func NewRefcache(mem *mtrace.Memory, name string, init int64) *Refcache {
	return &Refcache{mem: mem, name: name, base: mem.NewCell(name+".base", init)}
}

// delta returns core's delta cell, bearing it on first touch. A cell born
// inside a snapshot region survives Reset holding the journal-restored 0,
// which is the state it would have been built in.
func (r *Refcache) delta(core int) *mtrace.Cell {
	if core >= len(r.deltas) {
		r.deltas = append(r.deltas, make([]*mtrace.Cell, core+1-len(r.deltas))...)
	}
	c := r.deltas[core]
	if c == nil {
		c = r.mem.NewCellf(0, "%s.delta[%d]", r.name, core)
		r.deltas[core] = c
	}
	return c
}

// Inc adds delta using only the invoking core's cache line.
func (r *Refcache) Inc(core int, delta int64) { r.delta(core).Add(core, delta) }

// Read reconciles and returns the true count; it reads every core's delta
// cell, so it is conflict-free only against other readers.
func (r *Refcache) Read(core int) int64 {
	v := r.base.Load(core)
	r.delta(NCores - 1) // reach every core
	for i, d := range r.deltas {
		if d == nil {
			d = r.delta(i)
		}
		v += d.Load(core)
	}
	return v
}

// Peek reads the true count without tracing.
func (r *Refcache) Peek() int64 {
	v := r.base.Peek()
	for _, d := range r.deltas {
		if d != nil {
			v += d.Peek()
		}
	}
	return v
}

// Poke resets the count without tracing (setup only).
func (r *Refcache) Poke(v int64) {
	r.base.Poke(v)
	for _, d := range r.deltas {
		if d != nil {
			d.Poke(0)
		}
	}
}

// IDAlloc allocates identifiers scalably: each core owns a monotonic
// counter whose values are interleaved by core number (id = n*NCores +
// core), ScaleFS's "per-core counter concatenated with the core number"
// scheme for inode numbers. Allocations on different cores are
// conflict-free and never collide, and identifiers are never reused.
type IDAlloc struct {
	mem  *mtrace.Memory
	name string
	base int64
	// next[core] is created the first time core allocates: only its own
	// core ever touches it, so an unborn counter is indistinguishable from
	// one still holding base.
	next [NCores]*mtrace.Cell
}

// NewIDAlloc allocates an id allocator whose ids start at base.
func NewIDAlloc(mem *mtrace.Memory, name string, base int64) *IDAlloc {
	return &IDAlloc{mem: mem, name: name, base: base}
}

// Alloc returns a fresh identifier using only core-local state.
func (a *IDAlloc) Alloc(core int) int64 {
	c := a.next[core]
	if c == nil {
		c = a.mem.NewCellf(a.base, "%s.next[%d]", a.name, core)
		a.next[core] = c
	}
	n := c.Load(core)
	c.Store(core, n+1)
	return n*NCores + int64(core)
}

// SpinLock is a test-and-set lock on one cell. Acquire/Release are
// read-modify-writes, so any two critical sections on different cores
// conflict — the signature of coarse-grained locking.
type SpinLock struct {
	cell *mtrace.Cell
}

// NewSpinLock allocates a lock.
func NewSpinLock(mem *mtrace.Memory, name string) *SpinLock {
	return &SpinLock{cell: mem.NewCell(name, 0)}
}

// Acquire takes the lock from core. The traced execution is sequential, so
// the lock is always free; the point is the recorded write.
func (l *SpinLock) Acquire(core int) {
	if l.cell.Add(core, 1) != 1 {
		panic("scale: lock " + l.cell.Name() + " already held")
	}
}

// Release drops the lock.
func (l *SpinLock) Release(core int) {
	if l.cell.Add(core, -1) != 0 {
		panic("scale: lock " + l.cell.Name() + " not held")
	}
}

// HashDir is a directory represented as a fixed-size hash table with an
// independent lock and entry list per bucket (§1's file-creation example):
// operations on names that hash to different buckets are conflict-free.
//
// The table's size fixes which names collide; its buckets are built on
// demand. A bucket nobody has selected holds no entry, a free lock and a
// zero list version, so it need not exist: the first operation whose name
// hashes to it creates its cells, untraced, and memory is proportional to
// the buckets touched, not to the bucket count.
type HashDir struct {
	mem      *mtrace.Memory
	name     string
	nbuckets uint64
	buckets  map[uint64]*dirBucket
}

type dirBucket struct {
	lock *SpinLock
	// entries maps name id -> entry cell holding the inode number; a
	// nil/absent entry means the name is unbound. Each entry is its own
	// cell so lookups of different names in one bucket stay conflict-
	// free (only bucket membership changes touch the list cell). Entries
	// are added through the memory, so a snapshot reset removes them: a
	// stale one would skip the bucket-list write a fresh directory's Insert
	// performs (and add an entry read to lookups of an unbound name),
	// changing the traced access pattern between replays.
	list    *mtrace.Cell // version of the bucket's entry list
	entries map[int64]*mtrace.Cell
}

// NewHashDir allocates a directory with the given bucket count. It
// allocates no bucket: see HashDir.
func NewHashDir(mem *mtrace.Memory, name string, nbuckets int) *HashDir {
	return &HashDir{mem: mem, name: name, nbuckets: uint64(nbuckets), buckets: map[uint64]*dirBucket{}}
}

// bucket selects name's bucket, creating it on first selection. A bucket
// born inside a snapshot region survives Reset: the journal returns its
// cells to zero and its entries leave with it, which is the state it would
// have been built in.
func (d *HashDir) bucket(name int64) *dirBucket {
	// SplitMix64-style finalizer: high bits feed back into the low bits
	// that select the bucket, so structured name spaces spread evenly.
	h := uint64(name) * 0x9E3779B97F4A7C15
	h ^= h >> 30
	h *= 0xBF58476D1CE4E5B9
	h ^= h >> 27
	i := h % d.nbuckets
	b := d.buckets[i]
	if b == nil {
		b = &dirBucket{
			lock:    NewSpinLock(d.mem, fmt.Sprintf("%s.bucket[%d].lock", d.name, i)),
			list:    d.mem.NewCellf(0, "%s.bucket[%d].list", d.name, i),
			entries: map[int64]*mtrace.Cell{},
		}
		d.buckets[i] = b
	}
	return b
}

// Lookup returns the inode bound to name, or (0, false). It reads the
// bucket's list version and the entry cell only.
func (d *HashDir) Lookup(core int, name int64) (int64, bool) {
	b := d.bucket(name)
	_ = b.list.Load(core)
	e, ok := b.entries[name]
	if !ok || e.Load(core) == 0 {
		return 0, false
	}
	return e.Load(core), true
}

// Exists reports whether name is bound, reading the same cells as Lookup.
// It exists as a distinct entry point because ScaleFS's "don't read unless
// necessary" pattern needs a name-existence check that skips the inode.
func (d *HashDir) Exists(core int, name int64) bool {
	_, ok := d.Lookup(core, name)
	return ok
}

// Insert binds name to inum under the bucket lock; it fails when the name
// is already bound.
func (d *HashDir) Insert(core int, name, inum int64) bool {
	b := d.bucket(name)
	b.lock.Acquire(core)
	defer b.lock.Release(core)
	e, ok := b.entries[name]
	if ok && e.Load(core) != 0 {
		return false
	}
	if !ok {
		e = d.mem.NewCellf(0, "%s.entry[%d]", d.name, name)
		mtrace.SetKey(d.mem, b.entries, name, e)
		b.list.Add(core, 1)
	}
	e.Store(core, inum)
	return true
}

// Remove unbinds name; it reports whether the name was bound.
func (d *HashDir) Remove(core int, name int64) (int64, bool) {
	b := d.bucket(name)
	b.lock.Acquire(core)
	defer b.lock.Release(core)
	e, ok := b.entries[name]
	if !ok || e.Load(core) == 0 {
		return 0, false
	}
	old := e.Load(core)
	e.Store(core, 0)
	return old, true
}

// Replace binds name to inum regardless of a prior binding, returning the
// old inode (0 if none). rename's destination update uses this.
func (d *HashDir) Replace(core int, name, inum int64) int64 {
	b := d.bucket(name)
	b.lock.Acquire(core)
	defer b.lock.Release(core)
	e, ok := b.entries[name]
	if !ok {
		e = d.mem.NewCellf(0, "%s.entry[%d]", d.name, name)
		mtrace.SetKey(d.mem, b.entries, name, e)
		b.list.Add(core, 1)
	}
	old := e.Load(core)
	e.Store(core, inum)
	return old
}

// PokeInsert binds a name without tracing (setup only).
func (d *HashDir) PokeInsert(name, inum int64) {
	b := d.bucket(name)
	e, ok := b.entries[name]
	if !ok {
		e = d.mem.NewCellf(0, "%s.entry[%d]", d.name, name)
		mtrace.SetKey(d.mem, b.entries, name, e)
	}
	e.Poke(inum)
}

// Radix is a two-level radix array (RadixVM's core structure): every slot
// is its own cell, so reads and writes of different keys are conflict-free,
// in contrast with balanced trees whose rebalancing shares interior nodes.
type Radix struct {
	mem   *mtrace.Memory
	name  string
	fan   int64
	roots map[int64]*radixNode
}

type radixNode struct {
	present *mtrace.Cell // interior slot: nonzero when the leaf array exists
	leaves  map[int64]*mtrace.Cell
}

// NewRadix allocates a radix array with the given fanout.
func NewRadix(mem *mtrace.Memory, name string, fan int64) *Radix {
	return &Radix{mem: mem, name: name, fan: fan, roots: map[int64]*radixNode{}}
}

func (r *Radix) node(key int64) *radixNode {
	slot := key / r.fan
	n, ok := r.roots[slot]
	if !ok {
		n = &radixNode{
			present: r.mem.NewCellf(0, "%s.node[%d]", r.name, slot),
			leaves:  map[int64]*mtrace.Cell{},
		}
		r.roots[slot] = n
	}
	return n
}

func (r *Radix) leaf(key int64) *mtrace.Cell {
	n := r.node(key)
	l, ok := n.leaves[key]
	if !ok {
		l = r.mem.NewCellf(0, "%s.leaf[%d]", r.name, key)
		n.leaves[key] = l
	}
	return l
}

// Get reads the value at key (0 when never set).
func (r *Radix) Get(core int, key int64) int64 {
	n := r.node(key)
	if n.present.Load(core) == 0 {
		return 0
	}
	return r.leaf(key).Load(core)
}

// Set stores the value at key, materializing the interior slot on first
// touch.
func (r *Radix) Set(core int, key int64, v int64) {
	n := r.node(key)
	if n.present.Load(core) == 0 {
		n.present.Store(core, 1)
	}
	r.leaf(key).Store(core, v)
}

// Poke stores without tracing (setup only).
func (r *Radix) Poke(key int64, v int64) {
	n := r.node(key)
	n.present.Poke(1)
	r.leaf(key).Poke(v)
}

// Materialize pre-populates the interior nodes covering keys [0, n)
// untraced, so first writes in that range touch only their own leaf cells.
// RadixVM similarly eagerly allocates interior nodes to keep concurrent
// first-touch of different slots conflict-free.
func (r *Radix) Materialize(n int64) {
	for k := int64(0); k < n; k += r.fan {
		r.node(k).present.Poke(1)
	}
	if n > 0 {
		r.node(n - 1).present.Poke(1)
	}
}
