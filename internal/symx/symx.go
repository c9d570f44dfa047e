// Package symx is a symbolic execution harness for interface models
// written in Go. It plays the role COMMUTER's symbolic Python interpreter
// played in the original prototype: a model is an ordinary Go function that
// manipulates symbolic state through a Context; symx explores every feasible
// path by fork-and-replay, accumulating a path condition per path.
//
// Models must be deterministic: given the same branch decisions they must
// perform the same Context calls in the same order. All state reachable by a
// model must be rebuilt inside the model function (replay re-executes it
// from scratch for each path).
//
// Variable names must be content-derived: a name denotes one variable, of
// one sort and one kind, wherever the exploration meets it. An exploration
// therefore keeps one variable table for all its replays (Context.Var
// panics on a name met at another sort), and each Path's VarKinds is that
// table's kinds — every variable of the exploration, a superset of the
// path's own.
//
// A Dict's MakeVal must be a function of its tag: it may call Context.Var
// and Context.Assume and nothing else (Context.Branch inside it panics),
// and dictionaries that share a name share it. An exploration therefore
// derives what a dictionary location's tag determines — its membership
// variable, its initial value and the invariants MakeVal Assumes — once
// for all its replays; a later use Assumes the recorded invariants again,
// so the path condition grows, or the replay aborts, exactly as
// re-deriving would have made it.
//
// What a model builds — dictionaries (NewDict), their entries and initial
// probes, values (NewStruct, Struct.With) and the spec's state itself
// (New) — is allocated from a region that the scope of the exploration's
// Solver carries (sym.Scope.Region): slabs that a sweep worker reuses
// from pair to pair. The exploration's Context and its tables come from the
// same region. The Solver's Forget is their one reset, as it is the
// nodes': a Path's result and its VarKinds may hold them until then, and
// nothing may hold them after, since the next pair's objects take their
// storage at once. A fresh Solver starts with an empty region.
package symx

import (
	"context"
	"fmt"
	"slices"

	"repro/internal/region"
	"repro/internal/sym"
)

// VarKind classifies the symbolic variables a model creates, so downstream
// tools (TESTGEN) can tell operation arguments from initial-state content
// from nondeterministic outputs.
type VarKind int

const (
	// KindArg marks operation arguments.
	KindArg VarKind = iota
	// KindState marks unconstrained initial-state content.
	KindState
	// KindNondet marks nondeterministic outputs (e.g. freshly allocated
	// inode numbers); equivalence checks existentially quantify these.
	KindNondet
)

// abort is the panic sentinel used to abandon an infeasible path.
type abort struct{ reason string }

// Context carries the path condition and branch-decision trace of the
// replay in progress. Model code receives a Context and calls Branch/Assume/
// fresh-variable helpers on it. One Context serves every replay of an
// exploration, one after the other (see next).
type Context struct {
	solver *sym.Solver
	// r is the region of the solver's scope that the dictionaries, values
	// and states of the replays are allocated from.
	r *store
	// The path condition is maintained as its conjunct list plus a
	// pointer-identity set for deduplication (conjuncts are hash-consed,
	// so pointer equality is structural equality). It only ever grows by
	// conjunction, so the list is append-only: conjuncts keep their
	// position for the life of the path, and the conjunction node itself
	// is materialized once per completed path instead of once per
	// branch. The list is kept exactly equal to
	// sym.Conjuncts(sym.And(pcConjs...)). pcSet marks each conjunct inPC
	// and the operand of each negated conjunct negInPC, so that whether a
	// node's negation is a conjunct is a lookup that builds no Not.
	pcConjs []*sym.Expr
	pcSet   map[*sym.Expr]uint8

	trace []bool // the replayed prefix, then the decisions taken; kept storage
	pos   int    // next decision index

	pending [][]bool // alternative decision prefixes discovered this run

	// x is what the exploration's replays share.
	x *exploration

	// making is the dictionary whose MakeVal is running, at makingTag, or
	// nil.
	making    *Dict
	makingTag string

	// infeas caches conditions found unsatisfiable with the path
	// condition. The path condition only grows, so infeasibility is
	// monotone: once pc ∧ cond is unsatisfiable it stays unsatisfiable,
	// and dictionary lookups that re-branch on the same (hash-consed,
	// pointer-identical) key equalities skip the repeated refutation. The
	// value records that the refuting search ran out of budget, so a
	// cached "no" stays as unproven as the search that produced it.
	infeas map[*sym.Expr]bool

	// budgeted records that some feasibility check exhausted the
	// solver's step budget, so an "infeasible" answer along this path
	// may actually be unknown.
	budgeted bool

	// initProbes registers, per dictionary name, the initial-content
	// probes made by any dictionary instance, so that two states built
	// from the same unconstrained initial state observe identical
	// content even when they first probe a location under semantically
	// equal but syntactically different keys.
	initProbes map[string][]*initProbe

	// eq is DictsEquivalent's scratch, and conj Conjoin's list.
	eq   equivScratch
	conj []*sym.Expr
}

// The marks pcSet holds for a node.
const (
	inPC    uint8 = 1 << iota // the node is a path-condition conjunct
	negInPC                   // the node's negation is a conjunct
)

// exploration is what the replays of one RunCtx share besides their
// Context's storage: tables of what is a function of content-derived names
// and interned nodes, which a replay looks up instead of deriving again.
// They live, with their Context, in the store of the Solver's scope, and
// are emptied at its Forget for the next pair's explorations.
type exploration struct {
	// The variable table: the memoized named variables and their kinds.
	varKinds map[string]VarKind
	vars     map[string]*sym.Expr

	// probes holds what each dictionary location's tag determines (see
	// probe).
	probes map[probeKey]*probe

	// heard lists the conditions the current replay has Assumed, in order
	// (see heardSince).
	heard []*sym.Expr

	// paths are the exploration's complete paths so far, and queue the
	// decision prefixes still to replay (see RunCtx).
	paths    []Path
	queue    [][]bool
	prefixes region.Slab[bool] // the queued prefixes' decisions (see Branch)
}

// newContext starts an exploration on solver, and its first replay, along
// trace: a Context with empty tables from the store of solver's scope (see
// store.context), which the exploration's replays share until the
// solver's Forget.
func newContext(trace []bool, solver *sym.Solver) *Context {
	c := solver.Scope().Region(newStore).(*store).context()
	c.solver = solver
	c.next(trace)
	return c
}

// forget empties the Context for the next pair's exploration, keeping the
// storage of its tables and lists: nothing of the pair stays.
func (c *Context) forget() {
	c.next(nil)
	clear(c.pcConjs[:cap(c.pcConjs)])
	clear(c.x.heard[:cap(c.x.heard)])
	clear(c.pending[:cap(c.pending)])
	for _, ips := range c.initProbes {
		clear(ips[:cap(ips)])
	}
	clear(c.x.paths[:cap(c.x.paths)])
	clear(c.x.queue[:cap(c.x.queue)])
	c.x.paths, c.x.queue = c.x.paths[:0], c.x.queue[:0]
	c.x.prefixes.Rewind()
	clear(c.x.varKinds)
	clear(c.x.vars)
	clear(c.x.probes)
	c.eq.forget()
	clear(c.conj[:cap(c.conj)])
	c.solver = nil
}

// next starts the exploration's next replay, along trace, on the Context
// of the replay before: the exploration's tables stay, and what is the
// replay's own — the path condition and its set, the refutations, the
// initial probes, the decisions queued — is cleared and its storage kept,
// since the replays of one model make much the same calls. Nothing of the
// replay before may be read after this; a Path it finished holds no
// Context (see Sat).
func (c *Context) next(trace []bool) {
	c.pcConjs = c.pcConjs[:0]
	clear(c.pcSet)
	clear(c.infeas)
	for name, ips := range c.initProbes {
		clear(ips)
		c.initProbes[name] = ips[:0]
	}
	c.trace, c.pos, c.pending = append(c.trace[:0], trace...), 0, c.pending[:0]
	// A replay that aborted inside a MakeVal left it marked running.
	c.making, c.makingTag = nil, ""
	c.budgeted = false
	c.x.heard = c.x.heard[:0]
}

// PC returns the current path condition.
func (c *Context) PC() *sym.Expr { return sym.And(c.pcConjs...) }

// Var returns the memoized named variable, creating it in the solver's
// scope with the given sort and kind on first use. Names are
// content-derived by callers (for example "fs[a].present"), which keeps variable identities stable across the
// replays of different paths and permutations; the memo is the
// exploration's, so a name met at another sort in any replay panics.
func (c *Context) Var(name string, s sym.Sort, kind VarKind) *sym.Expr {
	if v, ok := c.x.vars[name]; ok {
		if v.Sort != s {
			panic(fmt.Sprintf("symx: variable %q redeclared at sort %v (was %v)", v.Name, s, v.Sort))
		}
		return v
	}
	v := c.solver.Scope().Var(name, s)
	c.x.vars[v.Name] = v
	c.x.varKinds[v.Name] = kind
	return v
}

// Conjoin returns sym.And of the conjuncts build appends to the list it is
// handed: c's own, emptied, kept from call to call and pair to pair, so a
// formula conjoined from many parts (a pair's SIM condition) costs no list
// of its own. build may not call Conjoin.
func (c *Context) Conjoin(build func(conjs []*sym.Expr) []*sym.Expr) *sym.Expr {
	c.conj = build(c.conj[:0])
	return sym.And(c.conj...)
}

// heardSince returns the conditions Assumed since the replay had Assumed
// start of them, in order.
func (c *Context) heardSince(start int) []*sym.Expr {
	return slices.Clone(c.x.heard[start:])
}

// Abort abandons the current path unconditionally. Models use it to prune
// branches excluded by nondeterministic choice (e.g. "the kernel picks an
// unused descriptor", so the branch where the choice collides is dropped).
func (c *Context) Abort() {
	panic(abort{reason: "model abort"})
}

// addPC conjoins cond onto the path condition: cond's top-level conjuncts
// are appended, skipping ones already present, exactly mirroring what
// sym.And's flatten-and-dedup would produce. cond must not be False (the
// callers abort or return before reaching here).
func (c *Context) addPC(cond *sym.Expr) {
	for _, cj := range sym.Conjuncts(cond) {
		if c.pcSet[cj]&inPC != 0 {
			continue
		}
		c.pcSet[cj] |= inPC
		c.pcConjs = append(c.pcConjs, cj)
		if cj.Op == sym.OpNot {
			c.pcSet[cj.Args[0]] |= negInPC
		}
	}
}

// pcImplies reports that cond (or each of its conjuncts) is already a
// path-condition conjunct, so pc ∧ cond ≡ pc — satisfiable by invariant.
// Hash-consing makes this a pointer lookup.
func (c *Context) pcImplies(cond *sym.Expr) bool {
	if c.pcSet[cond]&inPC != 0 {
		return true
	}
	if cond.Op != sym.OpAnd {
		return false
	}
	for _, cj := range cond.Args {
		if c.pcSet[cj]&inPC == 0 {
			return false
		}
	}
	return true
}

// pcRefutes reports that the path condition syntactically contains cond's
// negation (or the negation of one of cond's conjuncts), so pc ∧ cond is
// unsatisfiable without a search.
func (c *Context) pcRefutes(cond *sym.Expr) bool {
	if c.negated(cond) {
		return true
	}
	if cond.Op == sym.OpAnd {
		for _, cj := range cond.Args {
			if c.negated(cj) {
				return true
			}
		}
	}
	return false
}

// negated reports that sym.Not(e) is a conjunct, without building it:
// sym.Not of a negation is its operand, and of anything else the node
// whose operand addPC marked negInPC.
func (c *Context) negated(e *sym.Expr) bool {
	if e.Op == sym.OpNot {
		return c.pcSet[e.Args[0]]&inPC != 0
	}
	return c.pcSet[e]&negInPC != 0
}

// Assume conjoins cond onto the path condition, abandoning the path if it
// becomes unsatisfiable.
func (c *Context) Assume(cond *sym.Expr) {
	if cond.IsTrue() {
		return
	}
	c.x.heard = append(c.x.heard, cond)
	if !c.feasible(cond) {
		panic(abort{reason: "assumption unsatisfiable"})
	}
	c.addPC(cond)
}

// feasible reports whether pc ∧ cond is satisfiable (pc is known
// satisfiable — the invariant every admitted constraint preserves). It is
// the one ladder every feasibility question of an exploration climbs —
// Assume, both sides of Branch, and Sat: a refutation
// remembered in infeas, cond already among pc's conjuncts, its negation
// among them, and only then one cone-of-influence search. A "no" is
// recorded in infeas together with whether the search that gave it was
// truncated.
func (c *Context) feasible(cond *sym.Expr) bool {
	if cond.IsFalse() {
		return false
	}
	if _, bad := c.infeas[cond]; bad {
		return false // monotone: infeasible once, infeasible forever
	}
	if c.pcImplies(cond) {
		return true
	}
	if c.pcRefutes(cond) {
		c.infeas[cond] = false
		return false
	}
	if c.solver.SatAssumingConjs(c.pcConjs, cond) {
		return true
	}
	truncated := c.solver.Budget()
	c.infeas[cond] = truncated
	c.budgeted = c.budgeted || truncated
	return false
}

// Branch explores both sides of cond. It returns the concrete decision for
// this path and adds the corresponding constraint to the path condition.
// When both sides are feasible, the unexplored side is queued for a later
// replay. A MakeVal may not branch: Branch inside one panics.
func (c *Context) Branch(cond *sym.Expr) bool {
	if c.making != nil {
		panic(fmt.Sprintf("symx: MakeVal of %s branched at %s", c.making.Name, c.makingTag))
	}
	if cond.IsTrue() {
		return true
	}
	if cond.IsFalse() {
		return false
	}
	if c.pos < len(c.trace) {
		d := c.trace[c.pos]
		c.pos++
		if d {
			c.addPC(cond)
		} else {
			c.addPC(sym.Not(cond))
		}
		return d
	}
	tSat, fSat := c.feasible(cond), c.feasible(sym.Not(cond))
	if !tSat && !fSat {
		panic(abort{reason: "both branch directions infeasible"})
	}
	if tSat && fSat {
		// The trace holds only decided prefixes; c.pos == len(c.trace)
		// here, so the alternative is "everything so far, then false".
		alt := c.x.prefixes.Take(c.pos + 1)
		copy(alt, c.traceSoFar())
		alt[c.pos] = false
		c.pending = append(c.pending, alt)
	}
	c.takeDecision(tSat)
	if tSat {
		c.addPC(cond)
	} else {
		c.addPC(sym.Not(cond))
	}
	return tSat
}

func (c *Context) traceSoFar() []bool { return c.trace[:c.pos] }

// Sat reports whether the path condition so far ∧ extra is satisfiable,
// without conjoining extra, through the ladder the replay's own branches
// climb (feasible): its remembered refutations, its conjuncts, then one
// cone-of-influence search. unknown reports that a false answer came from
// a budget-truncated search and is therefore not a proof. Asked as a
// model's last act, it is a question about the finished path, answered on
// that path's own ladder; it cannot be asked later, because the next
// replay reuses the Context.
func (c *Context) Sat(extra *sym.Expr) (sat, unknown bool) {
	sat = c.feasible(extra)
	return sat, !sat && c.infeas[extra]
}

func (c *Context) takeDecision(d bool) {
	c.trace = append(c.trace[:c.pos], d)
	c.pos++
}

// Path is the outcome of one feasible execution path.
type Path struct {
	// PC is the path condition.
	PC *sym.Expr
	// Result is whatever the model function returned.
	Result any
	// VarKinds classifies every symbolic variable the exploration created,
	// on this path or any other. It is the exploration's own map, shared by
	// all its paths: read-only, and, like the nodes, valid until the
	// Solver's Forget.
	VarKinds map[string]VarKind
}

// DefaultMaxPaths is the path cap a zero Options.MaxPaths means, here and
// wherever the cap is folded into a content address.
const DefaultMaxPaths = 4096

// Options tunes path exploration.
type Options struct {
	// MaxPaths caps exploration (default DefaultMaxPaths).
	MaxPaths int
	// Solver is used for feasibility checks; nil means a fresh default.
	Solver *sym.Solver
}

// RunCtx symbolically executes fn, exploring every feasible path, and
// returns one Path per feasible complete execution plus the aggregated
// budget flag: a feasibility check ran out of solver budget, or MaxPaths
// was reached with branches left. The flag covers the whole run —
// including replays that aborted *because* of a truncated check, whose own
// paths never surface — so when it is set some branch reported infeasible
// without proof and may have been wrongly pruned, and a caller should read
// every path's negative answers as unknown rather than definitive. It is a
// separate return, not a field of each path, because exploration can be
// truncated so hard that *no* path survives: an empty path list with
// budgeted=true means "unknown", not "no feasible executions".
//
// One Context serves every replay of the exploration (see Context.next), so
// a question about a path's condition is asked by fn itself, as its last
// act (Context.Sat), before the next replay clears it; a returned Path
// holds no Context. The returned list is the exploration's own, kept with
// its Context in the region of the solver's scope: like the paths' nodes,
// it is valid until the solver's Forget, and its storage serves the next
// pair's exploration.
//
// Cancellation is observed between path replays, and — when RunCtx owns
// the solver — inside a replay's feasibility searches through the solver's
// Stop hook, so even a single long search cannot outlive the caller's
// deadline by much. On cancellation it returns ctx.Err() and whatever
// paths had completed; partial results from a cancelled exploration must
// not be interpreted (the caller is abandoning the work, not truncating
// it).
func RunCtx(ctx context.Context, fn func(*Context) any, opt Options) ([]Path, bool, error) {
	maxPaths := opt.MaxPaths
	if maxPaths == 0 {
		maxPaths = DefaultMaxPaths
	}
	solver := opt.Solver
	if solver == nil {
		// A fresh solver is ours to wire: its Stop hook makes in-search
		// cancellation prompt. A caller-provided solver is left untouched
		// (it may be shared across calls under a different context), so
		// there cancellation lands at replay granularity.
		solver = &sym.Solver{Stop: func() bool { return ctx.Err() != nil }}
	}
	defer solver.Scope().Fold() // where Context.Var made the variables

	c := newContext(nil, solver)
	x := c.x
	budgeted := false
	x.queue = append(x.queue, nil)
	for len(x.queue) > 0 && len(x.paths) < maxPaths {
		if err := ctx.Err(); err != nil {
			return x.paths, budgeted, err
		}
		prefix := x.queue[len(x.queue)-1]
		x.queue = x.queue[:len(x.queue)-1]
		c.next(prefix)
		res, aborted := runOne(c, fn)
		x.queue = append(x.queue, c.pending...)
		// Aggregate across replays, aborted ones included: a replay that
		// aborted because a truncated check said "infeasible" may have
		// been a real path, and only the surviving paths can carry that
		// news to the caller.
		budgeted = budgeted || c.budgeted
		if aborted {
			continue
		}
		x.paths = append(x.paths, Path{PC: c.PC(), Result: res, VarKinds: x.varKinds})
	}
	// Stopping at the cap with prefixes still queued leaves branches
	// unexplored: as much an under-approximation as a truncated search.
	budgeted = budgeted || len(x.queue) > 0
	return x.paths, budgeted, nil
}

// runOne executes fn once under c, converting abort panics into a flag.
func runOne(c *Context, fn func(*Context) any) (res any, aborted bool) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(abort); ok {
				aborted = true
				return
			}
			panic(r)
		}
	}()
	return fn(c), false
}
