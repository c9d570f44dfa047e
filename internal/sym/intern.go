package sym

import (
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/region"
)

// This file implements hash-consing for expressions: every node built by
// the package constructors is interned, so structurally equal expressions
// of one scope are pointer-equal and expression "trees" are really DAGs
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
// Nodes are interned in a Scope, a plain map that one goroutine at a time
// uses: a lookup takes no lock and a node needs no handle. A variable is
// made in a scope (Scope.Var) and a compound node lives in the scope of its
// arguments' variables, so the constructors name no scope. Each sweep
// worker's Solver owns one (Solver.Scope), and Solver.Forget resets it at
// every pair: a pair's nodes live as long as the pair, the scope's storage
// as long as the worker. Constants, the only nodes with no variable (a
// compound over constants folds to one), live in one process-wide base
// table; a lookup there reads atomic bucket heads, and only an insertion
// takes its mutex.
//
// A scope's nodes, their argument lists and their variable lists live in
// slabs (package region) in two banks: a generation allocates from one
// bank, and a reset switches to the other and rewinds it. The nodes of the
// generation just ended are left as they were until the reset after, which
// hands their slots out again with every field rewritten — the hash chain,
// the lists and the cached rendering included, since a stale rendering
// would print another node. The scope also carries one Region, a package's
// storage for what a pair builds beside its nodes (symx's dictionaries,
// values and spec states), and each reset rewinds it too — at once, with
// no second bank: Solver.Forget is the one reset point of a pair's
// symbolic world.
//
// An expression over nodes of two scopes panics, and so does a node made
// before its scope's last reset and used after it: its id still names the
// generation it was made in. A node two resets old may sit in a slot the
// scope has handed out again, and reads as that slot's new node, so nothing
// may keep a node past the next reset. Ids stay unique across the base
// table, every scope and every reset — an id's high half is its scope
// generation (0 for constants) — so the solver memo and hashNode, which key
// on ids, never meet a reused one.

// Scope is an intern table for the nodes built over its variables. It is
// not safe for concurrent use. A Solver makes one (Solver.Scope).
type Scope struct {
	// m holds the current generation's nodes by structural hash; nodes with
	// one hash are chained through Expr.next.
	m map[uint64]*Expr
	// gen is the high half of this generation's ids, last the last low half.
	gen, last uint64
	// vars keeps, across resets, the id and a copy of the name of each
	// variable the scope has made, so internVar's locked table is read once.
	vars map[varKey]scopeVar
	// hits and misses count constructor calls since the last Fold.
	hits, misses uint64
	// banks hold the nodes and their lists; the generation allocates from
	// banks[cur].
	banks [2]bank
	cur   int
	// region is what Region returned, or nil.
	region Region
	// walk stamps the solver's constant walks over the scope's nodes (see
	// Solver.collectConsts).
	walk uint64
}

// bank is one generation's storage: the nodes, and the argument and
// variable lists they point to.
type bank struct {
	nodes region.Slab[Expr]
	lists region.Slab[*Expr]
}

// Region is storage for what a pair builds beside its nodes, which a scope
// carries and rewinds at every reset (see Scope.Region).
type Region interface {
	// Rewind frees what the region handed out, for the generation that
	// starts.
	Rewind()
}

// Region returns the region the scope carries, made by newRegion at the
// first call. One package allocates from it (symx); the scope's resets
// rewind it.
func (s *Scope) Region(newRegion func() Region) Region {
	if s.region == nil {
		s.region = newRegion()
	}
	return s.region
}

// idShift splits an id into its scope generation and its place in it.
const idShift = 32

// scopeGens numbers scope generations; 0 is the base table's.
var scopeGens atomic.Uint64

// reset drops every node, keeps the map's storage, starts a new generation
// on the other bank, rewound, and rewinds the region.
func (s *Scope) reset() {
	s.Fold()
	clear(s.m)
	s.gen, s.last = scopeGens.Add(1), 0
	s.cur ^= 1
	s.banks[s.cur].nodes.Rewind()
	s.banks[s.cur].lists.Rewind()
	if s.region != nil {
		s.region.Rewind()
	}
}

// Fold adds the scope's counts since its last fold to the process-wide
// totals InternStats reads. A scope folds at every reset, and the symbolic
// executor and TESTGEN fold when an exploration or a generation pass
// returns, so no constructor call writes a shared counter.
func (s *Scope) Fold() {
	internHits.Add(s.hits)
	internMisses.Add(s.misses)
	s.hits, s.misses = 0, 0
}

// Var returns the free variable of the scope with the given name and sort;
// repeated calls return the same node until the scope is reset.
func (s *Scope) Var(name string, so Sort) *Expr {
	h := hashNode(OpVar, so, 0, false, name, nil)
	head := s.m[h]
	if e := find(head, OpVar, so, 0, false, name, nil); e != nil {
		s.hits++
		return e
	}
	v, ok := s.vars[varKey{name, so}]
	if !ok {
		v.name = strings.Clone(name) // a caller may render name on its stack
		v.id = internVar(v.name, so)
		s.vars[varKey{v.name, so}] = v
	}
	e := s.node()
	e.Op, e.Sort, e.Name, e.VarID = OpVar, so, v.name, v.id
	e.vars = s.list(1)
	e.vars[0] = e
	s.add(h, head, e)
	return e
}

// scopeVar is a variable a scope has made (Scope.vars).
type scopeVar struct {
	id   int
	name string
}

// node returns a zero node slot of the generation's bank.
func (s *Scope) node() *Expr { return s.banks[s.cur].nodes.New() }

// list returns n node pointers of the generation's bank, with capacity n.
func (s *Scope) list(n int) []*Expr { return s.banks[s.cur].lists.Take(n) }

// add publishes the new node e, whose hash is h, in front of head.
func (s *Scope) add(h uint64, head, e *Expr) {
	s.last++
	e.id, e.scope, e.next = s.gen<<idShift|s.last, s, head
	s.m[h] = e
	s.misses++
}

// internHits and internMisses are the totals the scopes fold into; the
// base table adds its insertions to internMisses.
var internHits, internMisses atomic.Uint64

// InternStats returns the process-wide intern-table hit and miss totals. A
// hit means a constructor returned a node its scope held (structure
// sharing paid off), a miss that a new node was interned. A scope's calls
// count once it folds them; a constant found in the base table counts
// nowhere, one added to it as a miss. Both only grow for the process
// lifetime, so observers (the obs metrics layer, the benchmark's probes)
// difference snapshots themselves.
func InternStats() (hits, misses uint64) {
	return internHits.Load(), internMisses.Load()
}

// InternSize returns the number of constants in the base table, the one
// intern table a process keeps: flat across repeated sweeps.
func InternSize() int { return int(base.n.Load()) }

// baseBuckets sizes the base table; all four specs use a few dozen constants.
const baseBuckets = 1 << 10

// base is the process-wide table of constants. Published chains never
// change, so a lookup loads a bucket head and takes no lock; mu serializes
// insertions.
var base struct {
	mu    sync.Mutex
	heads [baseBuckets]atomic.Pointer[Expr]
	n     atomic.Int64 // the entries, and the last id handed out
}

// internConst returns the constant of the given sort and value, adding it
// to the base table on first use.
func internConst(sort Sort, i64 int64, b bool) *Expr {
	slot := &base.heads[hashNode(OpConst, sort, i64, b, "", nil)&(baseBuckets-1)]
	if e := find(slot.Load(), OpConst, sort, i64, b, "", nil); e != nil {
		return e
	}
	base.mu.Lock()
	defer base.mu.Unlock()
	head := slot.Load()
	if e := find(head, OpConst, sort, i64, b, "", nil); e != nil {
		return e // another goroutine added it first
	}
	e := &Expr{Op: OpConst, Sort: sort, Int: i64, Bool: b, id: uint64(base.n.Add(1)), next: head}
	slot.Store(e)
	internMisses.Add(1)
	return e
}

const fnvOffset, fnvPrime = 14695981039346656037, 1099511628211

func hashMix(h, v uint64) uint64 { return (h ^ v) * fnvPrime }

// hashNode computes the structural hash of a prospective node from its
// components. Children contribute their interning ids, which is sound
// because children are always interned before their parents and ids are
// never reused.
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

// find returns the node of the chain from e that matches the components,
// or nil.
func find(e *Expr, op Op, sort Sort, i64 int64, b bool, name string, args []*Expr) *Expr {
	for e != nil && !matches(e, op, sort, i64, b, name, args) {
		e = e.next
	}
	return e
}

// intern returns the canonical compound node op(args) of the scope its
// arguments' variables live in, creating it on first use. args must
// already be interned, and not all constants (the constructors fold
// those: no scope would hold the node); intern keeps none of the caller's
// slice — a new node gets its own copy, in the scope's bank — so a hit
// allocates nothing and callers may build args on their stack.
func intern(op Op, sort Sort, args []*Expr) *Expr {
	var s *Scope
	for _, a := range args {
		switch {
		case a.scope == nil:
		case a.id>>idShift != a.scope.gen:
			panic("sym: a node used after its scope was reset")
		case s == nil:
			s = a.scope
		case a.scope != s:
			panic("sym: one expression over nodes of two scopes")
		}
	}
	h := hashNode(op, sort, 0, false, "", args)
	head := s.m[h]
	if e := find(head, op, sort, 0, false, "", args); e != nil {
		s.hits++
		return e
	}
	// A list of its own: were the copy written back to args, escape
	// analysis would move every caller's literal to the heap.
	e := s.node()
	e.Op, e.Sort, e.Args = op, sort, s.list(len(args))
	copy(e.Args, args)
	e.vars = s.mergeVars(e.Args)
	s.add(h, head, e)
	return e
}

// mergeVars computes the free variables of a compound node in
// first-occurrence DFS order — identical to walking the unfolded tree left
// to right and keeping first appearances — by merging the (already
// ordered) child lists into a list of the scope's bank. The result is
// shared and must never be mutated.
func (s *Scope) mergeVars(args []*Expr) []*Expr {
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
	return unionVars(s.list(total)[:0], args)
}

// unionVars appends to dst the variables of args' lists, in order, each
// once. Variables are interned, so a repeat is pointer-equal to the first
// occurrence already in dst.
func unionVars(dst, args []*Expr) []*Expr {
	start := len(dst)
	for _, a := range args {
		for _, v := range a.vars {
			if !slices.Contains(dst[start:], v) {
				dst = append(dst, v)
			}
		}
	}
	return dst
}
