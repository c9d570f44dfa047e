package sym

import (
	"sync"
	"sync/atomic"
	"weak"
)

// This file implements hash-consing for expressions: every node built by
// the package constructors is interned, so structurally equal live
// expressions are pointer-equal and expression "trees" are really DAGs
// that share common subterms. Interning is what makes the rest of the
// engine cheap:
//
//   - syntactic equality (And/Or dedup, Eq canonicalization, the symbolic
//     executor's path-condition lookups) is a pointer comparison instead
//     of a tree walk,
//   - derived per-node data — the free-variable list and the rendered
//     canonical form — is computed once per node and cached on it, turning
//     repeated O(tree) walks (variable ordering, cone-of-influence
//     computation, canonical ordering keys) into O(1) lookups.
//
// The interner is process-wide and shared by every symx.Context rather
// than per-context: path conditions for the 171 operation pairs of a cold
// sweep share most of their structure (the same initial-state invariants
// and key-equality guards recur in every pair), and a shared table lets
// concurrent sweep workers reuse each other's nodes while keeping the
// public constructor API (sym.And, sym.Eq, ...) unchanged. The table is
// sharded to keep lock contention negligible; nodes are immutable after
// publication, so readers never lock.
//
// Entries are weak references: the pipeline builds unbounded transient
// formulas (every cone-of-influence query, every path condition of every
// explored path), and a strong table would pin all of them for the
// process lifetime, growing the live heap — and with it every GC mark
// phase — without bound. Weak entries let dead expressions be collected.
// The entries themselves (a weak handle, a bucket slice, a map slot) are
// rarely found again once their node is gone — a node's hash mixes its
// children's interning ids, which are never reused, so a formula rebuilt
// from rebuilt parts lands on new keys — and so each shard sweeps them
// out itself: when the insertions since its last sweep reach the number
// of entries that sweep left (internSweepFloor at least), it drops every
// cleared entry and moves the rest to a new map. That bounds a shard by
// twice what its last sweep found alive, at an amortized cost of two
// entry visits per insertion; InternSize reports the total, and a process
// that runs the same sweeps over and over sees it flat. Two structurally
// equal *live* nodes still cannot coexist: a node is only rebuilt after
// every strong reference to its predecessor is gone.

// internShardCount is a power of two sizing the lock shards.
const internShardCount = 64

type internShard struct {
	mu sync.Mutex
	m  map[uint64][]weak.Pointer[Expr]
	// n counts the entries in m, cleared ones included.
	n int
	// inserts counts insertions since the last sweep; the next one runs
	// when they reach sweepAt, the number of entries the last one left (or
	// the floor).
	inserts, sweepAt int
}

// internSweepFloor keeps a nearly empty shard from sweeping on every
// handful of insertions.
const internSweepFloor = 64

// interner is the process-wide hash-consing table.
type interner struct {
	shards [internShardCount]internShard
	nextID atomic.Uint64
}

func newInterner() *interner {
	it := &interner{}
	for i := range it.shards {
		it.shards[i].m = make(map[uint64][]weak.Pointer[Expr])
		it.shards[i].sweepAt = internSweepFloor
	}
	return it
}

var defaultInterner = newInterner()

// Process-wide intern-table traffic counters. A hit means a constructor
// returned an already-live node (structure sharing paid off); a miss
// means a new node was interned. They are monotonically increasing for
// the process lifetime, so observers (the obs metrics layer, per-pair
// sweep deltas) read them as totals and difference snapshots themselves.
var internHitCount, internMissCount atomic.Uint64

// InternStats returns the process-wide intern-table hit and miss totals.
func InternStats() (hits, misses uint64) {
	return internHitCount.Load(), internMissCount.Load()
}

// InternSize returns the number of entries the intern table holds, whether
// their expressions are alive or collected and not yet swept: the table's
// footprint, which has to follow the live expression population down as
// well as up.
func InternSize() int {
	n := 0
	for i := range defaultInterner.shards {
		sh := &defaultInterner.shards[i]
		sh.mu.Lock()
		n += sh.n
		sh.mu.Unlock()
	}
	return n
}

// SweepInternTable sweeps every shard now instead of at its next trigger,
// so that after a collection InternSize reads the live expressions alone
// rather than a point on each shard's sawtooth. Nothing in the pipeline
// needs that — a shard's own sweeps bound it; it is the seam through which
// the retention test in package commuter reads a repeatable number.
func SweepInternTable() {
	for i := range defaultInterner.shards {
		sh := &defaultInterner.shards[i]
		sh.mu.Lock()
		sh.sweep()
		sh.mu.Unlock()
	}
}

const fnvOffset, fnvPrime = 14695981039346656037, 1099511628211

func hashMix(h, v uint64) uint64 { return (h ^ v) * fnvPrime }

// hashNode computes the structural hash of a prospective node from its
// components. Children contribute their interning ids, which is sound
// because children are always interned before their parents and ids are
// never reused while the child is reachable.
func hashNode(op Op, sort Sort, i64 int64, b bool, name string, args []*Expr) uint64 {
	h := uint64(fnvOffset)
	h = hashMix(h, uint64(op))
	h = hashMix(h, uint64(sort.Kind))
	for i := 0; i < len(sort.Name); i++ {
		h = hashMix(h, uint64(sort.Name[i]))
	}
	h = hashMix(h, uint64(i64))
	if b {
		h = hashMix(h, 1)
	}
	for i := 0; i < len(name); i++ {
		h = hashMix(h, uint64(name[i]))
	}
	h = hashMix(h, uint64(len(args)))
	for _, a := range args {
		h = hashMix(h, a.id)
	}
	return h
}

// matches reports whether the interned node e is exactly the node described
// by the components. Children compare by pointer: they are interned.
func matches(e *Expr, op Op, sort Sort, i64 int64, b bool, name string, args []*Expr) bool {
	if e.Op != op || e.Sort != sort || e.Int != i64 || e.Bool != b || e.Name != name || len(e.Args) != len(args) {
		return false
	}
	for i, a := range args {
		if e.Args[i] != a {
			return false
		}
	}
	return true
}

// intern returns the canonical node for the given components, creating and
// publishing it on first use. args must already be interned and must not be
// mutated by the caller afterwards.
func intern(op Op, sort Sort, i64 int64, b bool, name string, args []*Expr) *Expr {
	it := defaultInterner
	h := hashNode(op, sort, i64, b, name, args)
	sh := &it.shards[h&(internShardCount-1)]
	sh.mu.Lock()
	bucket := sh.m[h]
	compact := false
	for _, wp := range bucket {
		e := wp.Value()
		if e == nil {
			compact = true
			continue
		}
		if matches(e, op, sort, i64, b, name, args) {
			if compact {
				sh.m[h] = sh.compactBucket(bucket)
			}
			sh.mu.Unlock()
			internHitCount.Add(1)
			return e
		}
	}
	e := &Expr{Op: op, Sort: sort, Int: i64, Bool: b, Name: name, Args: args}
	if op == OpVar {
		e.VarID = internVar(name)
	}
	e.id = it.nextID.Add(1)
	e.vars = mergeVars(e, args)
	if compact {
		bucket = sh.compactBucket(bucket)
	}
	// All fields are set before the node becomes reachable; the shard
	// mutex publishes it to other goroutines.
	sh.m[h] = append(bucket, weak.Make(e))
	sh.n++
	sh.inserts++
	if sh.inserts >= sh.sweepAt {
		sh.sweep()
	}
	sh.mu.Unlock()
	internMissCount.Add(1)
	return e
}

// compactBucket drops cleared entries from one bucket, and from the
// shard's count.
func (sh *internShard) compactBucket(bucket []weak.Pointer[Expr]) []weak.Pointer[Expr] {
	out := bucket[:0]
	for _, wp := range bucket {
		if wp.Value() != nil {
			out = append(out, wp)
		}
	}
	sh.n -= len(bucket) - len(out)
	return out
}

// sweep drops every entry whose expression has been collected, moving the
// survivors to a new map: a Go map keeps its storage when entries are
// deleted, and a shard that served one large formula would carry that
// storage for the life of the process. Called with the shard lock held.
func (sh *internShard) sweep() {
	m := make(map[uint64][]weak.Pointer[Expr])
	for h, bucket := range sh.m {
		if live := sh.compactBucket(bucket); len(live) > 0 {
			m[h] = live
		}
	}
	sh.m, sh.inserts, sh.sweepAt = m, 0, max(sh.n, internSweepFloor)
}

// mergeVars computes the free variables of a node in first-occurrence
// DFS order — identical to walking the unfolded tree left to right and
// keeping first appearances — by merging the (already ordered) child
// lists. The result is shared and must never be mutated.
func mergeVars(e *Expr, args []*Expr) []*Expr {
	if e.Op == OpVar {
		return []*Expr{e}
	}
	total, nonEmpty := 0, 0
	var last []*Expr
	for _, a := range args {
		if len(a.vars) > 0 {
			total += len(a.vars)
			nonEmpty++
			last = a.vars
		}
	}
	switch nonEmpty {
	case 0:
		return nil
	case 1:
		return last
	}
	out := make([]*Expr, 0, total)
	if total <= 16 {
		for _, a := range args {
		vloop:
			for _, v := range a.vars {
				for _, o := range out {
					if o == v {
						continue vloop
					}
				}
				out = append(out, v)
			}
		}
		return out
	}
	seen := make(map[*Expr]struct{}, total)
	for _, a := range args {
		for _, v := range a.vars {
			if _, ok := seen[v]; ok {
				continue
			}
			seen[v] = struct{}{}
			out = append(out, v)
		}
	}
	return out
}
