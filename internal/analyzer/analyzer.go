// Package analyzer implements COMMUTER's ANALYZER component (§5.1 of the
// paper): it symbolically executes both orders of a pair of modeled
// operations from a shared unconstrained initial state, and computes the
// precise conditions — in terms of operation arguments and system state —
// under which the pair commutes.
//
// The commutativity test is a pair's SIM condition (§3.2, specialized as
// in §5.1): the pair commutes on a path when each operation's return value
// is equal in both orders and the final states are indistinguishable
// through the interface, allowing nondeterministic outputs (freshly
// allocated identifiers) to be chosen equal. COMMUTER runs ANALYZER on
// pairs and every consumer here is pair-shaped; SIM over regions of any
// size, with its intermediate-state requirement, is executable in
// examples/quickstart's SIMCommutes.
//
// A path carries what TESTGEN reads — the path condition, the SIM
// condition, whether their conjunction is satisfiable, whether that answer
// is a proof, and the two orders' final dictionaries — and nothing else is
// decided per path. The converse question (can the pair be
// order-distinguished on this path?) has one reader, `commuter analyze`,
// and is asked there, after the fact, through CanDiverge.
package analyzer

import (
	"context"
	"fmt"
	"slices"

	"repro/internal/spec"
	"repro/internal/sym"
	"repro/internal/symx"
)

// Path is one feasible joint path of the pair's two orders: what ANALYZE
// establishes about it.
//
// The path's commutativity condition, PC ∧ Eq, is not kept built: its one
// reader in a sweep, TESTGEN, enumerates the two conjunct lists as they
// are (sym.Solver.EnumerateConjs), and CommuteCond builds the conjunction
// for the readers that print or describe it.
type Path struct {
	// PC is the joint path condition across both orders.
	PC *sym.Expr
	// Eq states the pair's SIM condition: both return values equal across
	// the two orders and the final states equivalent.
	Eq *sym.Expr
	// Commutes reports whether PC ∧ Eq is satisfiable: some initial state
	// and arguments on this path make the pair commute.
	Commutes bool
	// Unknown reports that path exploration was truncated or the commute
	// search exhausted the solver's step budget: a false Commutes is then
	// an under-approximation — "not proven", not "proven not" — and the
	// tests generated from the pair are a lower bound.
	Unknown bool
	// VarKinds classifies the symbolic variables of the path's exploration
	// (symx.Path.VarKinds): every variable of the path, and its siblings'.
	// Like PC, it lives in the Solver that analysed the pair, until its
	// Forget.
	VarKinds map[string]symx.VarKind
	// DictsA and DictsB are the dictionaries (State.Dicts) of the final
	// symbolic states of the two orders (op0;op1 and op1;op0), which Eq
	// compares; TESTGEN plans their initial-probe entries (spec.Probes) to
	// materialize concrete initial states. They alias the states' own
	// slices: read-only. Like PC and Eq, they live in the Solver that
	// analysed the pair, until its Forget.
	DictsA, DictsB []*symx.Dict
}

// CommuteCond builds PC ∧ Eq: the commutativity condition of this path.
func (p Path) CommuteCond() *sym.Expr { return sym.And(p.PC, p.Eq) }

// PairResult aggregates analysis of one operation pair.
type PairResult struct {
	// Spec names the interface specification the pair belongs to; the
	// pipeline threads it through test generation and caching so results
	// of different specs can never be conflated.
	Spec     string
	OpA, OpB string
	// Config is the spec configuration the pair was analysed under;
	// TESTGEN concretizes calls under the same one.
	Config spec.Config
	// Paths holds every feasible joint path.
	Paths []Path
	// Budgeted reports that path exploration was truncated: a
	// feasibility check hit the solver budget, or the MaxPaths cap was
	// reached with branches still unexplored. When true every path
	// carries Unknown; it is recorded separately so a truncation harsh
	// enough to leave zero surviving paths still reads as unknown, not
	// as "no feasible executions".
	Budgeted bool
}

// CommutativePaths returns the paths on which the pair can commute.
func (r *PairResult) CommutativePaths() []Path {
	var out []Path
	for _, p := range r.Paths {
		if p.Commutes {
			out = append(out, p)
		}
	}
	return out
}

// Unknown counts the paths whose classification is not a proof. A
// truncated exploration that left no surviving paths counts as one
// unknown, so the pair can never silently read as "no feasible executions".
func (r *PairResult) Unknown() int {
	n := 0
	for _, p := range r.Paths {
		if p.Unknown {
			n++
		}
	}
	if n == 0 && r.Budgeted {
		return 1
	}
	return n
}

// Summary describes the pair's commutativity in one line. Budget-truncated
// classifications are called out so an under-approximated pair is never
// read as "never commutes".
func (r *PairResult) Summary() string {
	s := fmt.Sprintf("%s x %s: %d paths, %d commutative",
		r.OpA, r.OpB, len(r.Paths), len(r.CommutativePaths()))
	if nu := r.Unknown(); nu > 0 {
		s += fmt.Sprintf(", %d unknown (solver budget exhausted)", nu)
	}
	return s
}

// Options tunes the analysis.
type Options struct {
	// Config selects spec variants (e.g. the POSIX lowest-FD rule).
	Config spec.Config
	// MaxPaths caps joint path exploration (default symx.DefaultMaxPaths).
	MaxPaths int
	// Solver overrides the default solver.
	Solver *sym.Solver
}

// AnalyzePairCtx is the ANALYZER for the pair (opA, opB) of the spec sp:
// both orders run from the shared symbolic initial state, and each
// feasible joint path is classified as the last act of its replay, on the
// replay's own feasibility ladder (symx.Context.Sat).
//
// Cancellation is observed between path replays, before each path's
// classification, and — via the solver's Stop hook — inside individual
// satisfiability searches, so an abandoned analysis stops promptly. On
// cancellation it returns ctx.Err() and a zero result; nothing partial
// escapes.
func AnalyzePairCtx(ctx context.Context, sp spec.Spec, opA, opB *spec.Op, opt Options) (PairResult, error) {
	solver := opt.Solver
	if solver == nil {
		solver = &sym.Solver{Stop: func() bool { return ctx.Err() != nil }}
	}
	paths, budgeted, err := symx.RunCtx(ctx, func(c *symx.Context) any {
		argsA, argsB := spec.MakeArgs(c, opA, "0"), spec.MakeArgs(c, opB, "1")
		newExec := func() *spec.Exec {
			return &spec.Exec{C: c, S: sp.NewState(c, opt.Config), Cfg: opt.Config}
		}
		ab := newExec() // op0;op1
		abA := opA.Exec(ab, "0", argsA)
		abB := opB.Exec(ab, "1", argsB)
		ba := newExec() // op1;op0
		baB := opB.Exec(ba, "1", argsB)
		baA := opA.Exec(ba, "0", argsA)

		// Returns and final states must agree. Every requirement lands in
		// one flat conjunct list, the Context's, conjoined once.
		da, db := ab.S.Dicts(), ba.S.Dicts()
		eq := c.Conjoin(func(conj []*sym.Expr) []*sym.Expr {
			return spec.Equivalent(append(conj, spec.RetEq(abA, baA), spec.RetEq(abB, baB)), c, da, db)
		})
		p := Path{Eq: eq, DictsA: da, DictsB: db}
		// The path is complete: classify it now, since the next replay
		// reuses c. Once ctx ends, the exploration stops at its next poll,
		// or at the one below.
		if ctx.Err() == nil {
			p.Commutes, p.Unknown = c.Sat(p.Eq)
		}
		return p
	}, symx.Options{MaxPaths: opt.MaxPaths, Solver: solver})
	if err != nil {
		return PairResult{}, err
	}

	res := PairResult{Spec: sp.Name(), OpA: opA.Name, OpB: opB.Name, Config: opt.Config, Budgeted: budgeted}
	res.Paths = slices.Grow(res.Paths, len(paths))
	for _, xp := range paths {
		p := xp.Result.(Path)
		p.PC, p.VarKinds = xp.PC, xp.VarKinds
		p.Unknown = budgeted || p.Unknown
		res.Paths = append(res.Paths, p)
	}
	// Cancellation during the last path's classification would otherwise
	// escape as a "successful" result whose Stop-hook-aborted searches
	// read as spurious Unknowns; nothing partial may escape.
	if err := ctx.Err(); err != nil {
		return PairResult{}, err
	}
	return res, nil
}
