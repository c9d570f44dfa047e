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
package symx

import (
	"context"
	"fmt"

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

// Context carries the path condition and branch-decision trace for one
// symbolic path. Model code receives a Context and calls Branch/Assume/
// fresh-variable helpers on it.
type Context struct {
	solver *sym.Solver
	// The path condition is maintained as its conjunct list plus a
	// pointer-identity set for deduplication (conjuncts are hash-consed,
	// so pointer equality is structural equality). It only ever grows by
	// conjunction, so the list is append-only: conjuncts keep their
	// position for the life of the path, and the conjunction node itself
	// is materialized once per completed path instead of once per
	// branch. The list is kept exactly equal to
	// sym.Conjuncts(sym.And(pcConjs...)).
	pcConjs []*sym.Expr
	pcSet   map[*sym.Expr]struct{}

	trace []bool // prerecorded decisions for replay
	pos   int    // next decision index

	pending  [][]bool // alternative decision prefixes discovered this run
	varKinds map[string]VarKind
	vars     map[string]*sym.Expr // memoized named variables

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
}

func newContext(trace []bool, solver *sym.Solver) *Context {
	return &Context{
		solver:     solver,
		pcSet:      map[*sym.Expr]struct{}{},
		infeas:     map[*sym.Expr]bool{},
		trace:      trace,
		varKinds:   map[string]VarKind{},
		vars:       map[string]*sym.Expr{},
		initProbes: map[string][]*initProbe{},
	}
}

// PC returns the current path condition.
func (c *Context) PC() *sym.Expr { return sym.And(c.pcConjs...) }

// Var returns the memoized named variable, creating it with the given sort
// and kind on first use. Names are content-derived by callers (for example
// "fs[a].present"), which keeps variable identities stable across the
// replays of different paths and permutations.
func (c *Context) Var(name string, s sym.Sort, kind VarKind) *sym.Expr {
	if v, ok := c.vars[name]; ok {
		if v.Sort != s {
			panic(fmt.Sprintf("symx: variable %q redeclared at sort %v (was %v)", name, s, v.Sort))
		}
		return v
	}
	v := sym.Var(name, s)
	c.vars[name] = v
	c.varKinds[name] = kind
	return v
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
		if _, dup := c.pcSet[cj]; dup {
			continue
		}
		c.pcSet[cj] = struct{}{}
		c.pcConjs = append(c.pcConjs, cj)
	}
}

// pcImplies reports that cond (or each of its conjuncts) is already a
// path-condition conjunct, so pc ∧ cond ≡ pc — satisfiable by invariant.
// Hash-consing makes this a pointer lookup.
func (c *Context) pcImplies(cond *sym.Expr) bool {
	if _, ok := c.pcSet[cond]; ok {
		return true
	}
	if cond.Op != sym.OpAnd {
		return false
	}
	for _, cj := range cond.Args {
		if _, ok := c.pcSet[cj]; !ok {
			return false
		}
	}
	return true
}

// pcRefutes reports that the path condition syntactically contains cond's
// negation (or the negation of one of cond's conjuncts), so pc ∧ cond is
// unsatisfiable without a search. sym.Not canonicalizes — for an OpNot
// argument it returns the inner node — so one lookup covers both
// polarities.
func (c *Context) pcRefutes(cond *sym.Expr) bool {
	if _, ok := c.pcSet[sym.Not(cond)]; ok {
		return true
	}
	if cond.Op == sym.OpAnd {
		for _, cj := range cond.Args {
			if _, ok := c.pcSet[sym.Not(cj)]; ok {
				return true
			}
		}
	}
	return false
}

// Assume conjoins cond onto the path condition, abandoning the path if it
// becomes unsatisfiable.
func (c *Context) Assume(cond *sym.Expr) {
	if cond.IsTrue() {
		return
	}
	if !c.feasible(cond) {
		panic(abort{reason: "assumption unsatisfiable"})
	}
	c.addPC(cond)
}

// feasible reports whether pc ∧ cond is satisfiable (pc is known
// satisfiable — the invariant every admitted constraint preserves). It is
// the one ladder every feasibility question of an exploration climbs —
// Assume, both sides of Branch, and Path.Sat afterwards: a refutation
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
// replay.
func (c *Context) Branch(cond *sym.Expr) bool {
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
		alt := make([]bool, c.pos+1)
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
	// VarKinds classifies every symbolic variable the path created. It is
	// the finished context's own map: read-only.
	VarKinds map[string]VarKind
	// Budgeted reports that a feasibility check during the exploration
	// exhausted the solver's step budget, or that the exploration stopped
	// at its path cap with branches left. The flag is aggregated across
	// the whole run — including replays that aborted *because* of a
	// truncated check, whose own paths never surface — so any path of an
	// affected exploration carries it: some branch somewhere reported
	// infeasible without proof and may have been wrongly pruned.
	// Downstream classification should treat the pair's negative answers
	// as unknown rather than definitive.
	Budgeted bool

	// ctx is the finished exploration context, kept so Sat can pose
	// further questions against the path condition.
	ctx *Context
}

// Sat reports whether PC ∧ extra is satisfiable, through the same ladder
// exploration used for its branches (Context.feasible). unknown reports
// that a false answer came from a budget-truncated search and is therefore
// not a proof.
func (p *Path) Sat(extra *sym.Expr) (sat, unknown bool) {
	sat = p.ctx.feasible(extra)
	return sat, !sat && p.ctx.infeas[extra]
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
// budget flag — a feasibility check ran out of solver budget, or MaxPaths
// was reached with branches left — which it also stamps on every returned
// path. The separate
// return matters when exploration is truncated so hard that *no* path
// survives: an empty path list with budgeted=true means "unknown", not "no
// feasible executions".
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

	var paths []Path
	budgeted := false
	queue := [][]bool{nil}
	for len(queue) > 0 && len(paths) < maxPaths {
		if err := ctx.Err(); err != nil {
			return paths, budgeted, err
		}
		prefix := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		c := newContext(prefix, solver)
		res, aborted := runOne(c, fn)
		queue = append(queue, c.pending...)
		// Aggregate across replays, aborted ones included: a replay that
		// aborted because a truncated check said "infeasible" may have
		// been a real path, and only the surviving paths can carry that
		// news to the caller.
		budgeted = budgeted || c.budgeted
		if aborted {
			continue
		}
		paths = append(paths, Path{
			PC: c.PC(), Result: res, VarKinds: c.varKinds, ctx: c,
		})
	}
	// Stopping at the cap with prefixes still queued leaves branches
	// unexplored: as much an under-approximation as a truncated search.
	budgeted = budgeted || len(queue) > 0
	for i := range paths {
		paths[i].Budgeted = budgeted
	}
	return paths, budgeted, nil
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
