// Package analyzer implements COMMUTER's ANALYZER component (§5.1 of the
// paper): it symbolically executes all permutations of a set of modeled
// operations from a shared unconstrained initial state, and computes the
// precise conditions — in terms of operation arguments and system state —
// under which the set commutes.
//
// The commutativity test codifies SIM commutativity for pairs (§3.2,
// specialized as in §5.1): a pair commutes on a path when each operation's
// return value is equal in both permutations and the final states are
// indistinguishable through the interface, allowing nondeterministic
// outputs (freshly allocated identifiers) to be chosen equal.
package analyzer

import (
	"context"
	"fmt"

	"repro/internal/spec"
	"repro/internal/sym"
	"repro/internal/symx"
)

// PairPath is one feasible joint path of the two permutations of a pair.
type PairPath struct {
	// PC is the joint path condition.
	PC *sym.Expr
	// Eq states that returns match and final states are equivalent.
	Eq *sym.Expr
	// CommuteCond is PC ∧ Eq: the commutativity condition of this path.
	CommuteCond *sym.Expr
	// Commutes reports whether CommuteCond is satisfiable: some initial
	// state and arguments on this path make the pair commute.
	Commutes bool
	// CanDiverge reports whether PC ∧ ¬Eq is satisfiable: some initial
	// state and arguments on this path order-distinguish the pair.
	CanDiverge bool
	// Unknown reports that classifying this path exhausted the solver's
	// step budget (or path exploration itself did): a false Commutes or
	// CanDiverge is then an under-approximation — "not proven", not
	// "proven not" — and downstream reporting must not present the pair
	// as definitively non-commutative.
	Unknown bool
	// StateA and StateB are the final symbolic states of the two
	// permutations (op0;op1 and op1;op0); the spec's Concretizer mines
	// their initial-probe entries to materialize concrete initial states.
	StateA, StateB spec.State
	// RetsA0.. hold the return vectors: RetsA* from the op0;op1 order,
	// RetsB* from op1;op0; index 0 is op0's return, 1 is op1's.
	RetsA, RetsB [2][]*sym.Expr
	// VarKinds classifies the path's symbolic variables.
	VarKinds map[string]symx.VarKind
}

// PairResult aggregates analysis of one operation pair.
type PairResult struct {
	// Spec names the interface specification the pair belongs to; the
	// pipeline threads it through test generation and caching so results
	// of different specs can never be conflated.
	Spec     string
	OpA, OpB string
	// Paths holds every feasible joint path.
	Paths []PairPath
	// Budgeted reports that path exploration hit the solver budget
	// somewhere. When true every path carries Unknown; it is recorded
	// separately so a truncation harsh enough to leave zero surviving
	// paths still reads as unknown, not as "no feasible executions".
	Budgeted bool
}

// CommutativePaths returns the paths on which the pair can commute.
func (r *PairResult) CommutativePaths() []PairPath {
	var out []PairPath
	for _, p := range r.Paths {
		if p.Commutes {
			out = append(out, p)
		}
	}
	return out
}

// Options tunes the analysis.
type Options struct {
	// Config selects spec variants (e.g. the POSIX lowest-FD rule).
	Config spec.Config
	// MaxPaths caps joint path exploration per pair (default 4096).
	MaxPaths int
	// Solver overrides the default solver.
	Solver *sym.Solver
}

type pathData struct {
	eq             *sym.Expr
	stateA, stateB spec.State
	retsA, retsB   [2][]*sym.Expr
}

// AnalyzePairCtx symbolically executes both permutations of (opA, opB) —
// operations of the spec sp — from a shared symbolic initial state and
// classifies every joint path. Cancellation is observed between path
// replays, between per-path classifications, and — via the solver's Stop
// hook — inside individual satisfiability searches, so an abandoned
// analysis stops promptly even mid-pair. On cancellation it returns
// ctx.Err() and a zero PairResult; nothing partial escapes.
func AnalyzePairCtx(ctx context.Context, sp spec.Spec, opA, opB *spec.Op, opt Options) (PairResult, error) {
	solver := opt.Solver
	if solver == nil {
		solver = &sym.Solver{Stop: func() bool { return ctx.Err() != nil }}
	}
	paths, budgeted, err := symx.RunCtx(ctx, func(c *symx.Context) any {
		argsA := spec.MakeArgs(c, opA, "0")
		argsB := spec.MakeArgs(c, opB, "1")

		sa := sp.NewState(c, opt.Config)
		xa := &spec.Exec{C: c, S: sa, Cfg: opt.Config}
		rA0 := opA.Exec(xa, "0", argsA)
		rA1 := opB.Exec(xa, "1", argsB)

		sb := sp.NewState(c, opt.Config)
		xb := &spec.Exec{C: c, S: sb, Cfg: opt.Config}
		rB1 := opB.Exec(xb, "1", argsB)
		rB0 := opA.Exec(xb, "0", argsA)

		eq := sym.And(
			spec.RetEq(rA0, rB0),
			spec.RetEq(rA1, rB1),
			spec.Equivalent(c, sa, sb))
		return pathData{
			eq:     eq,
			stateA: sa, stateB: sb,
			retsA: [2][]*sym.Expr{rA0, rA1},
			retsB: [2][]*sym.Expr{rB0, rB1},
		}
	}, symx.Options{MaxPaths: opt.MaxPaths, Solver: solver})
	if err != nil {
		return PairResult{}, err
	}

	res := PairResult{Spec: sp.Name(), OpA: opA.Name, OpB: opB.Name, Budgeted: budgeted}
	for _, p := range paths {
		if cerr := ctx.Err(); cerr != nil {
			return PairResult{}, cerr
		}
		d := p.Result.(pathData)
		cc := sym.And(p.PC, d.eq)
		commutes, cu := p.Sat(d.eq)
		diverges, du := divergeSat(&p, d.eq)
		pp := PairPath{
			PC:          p.PC,
			Eq:          d.eq,
			CommuteCond: cc,
			Commutes:    commutes,
			CanDiverge:  diverges,
			Unknown:     p.Budgeted || cu || du,
			StateA:      d.stateA,
			StateB:      d.stateB,
			RetsA:       d.retsA,
			RetsB:       d.retsB,
			VarKinds:    p.VarKinds,
		}
		res.Paths = append(res.Paths, pp)
	}
	// Cancellation during the last path's classification would otherwise
	// escape as a "successful" result whose Stop-hook-aborted searches
	// read as spurious Unknowns; nothing partial may escape.
	if err := ctx.Err(); err != nil {
		return PairResult{}, err
	}
	return res, nil
}

// divergeSat checks whether the path's PC ∧ ¬eq is satisfiable. eq is a
// conjunction, and ¬(c1 ∧ … ∧ cn) is satisfiable with PC iff some
// PC ∧ ¬ci is, so the check decomposes into small per-conjunct problems
// whose cones of influence stay narrow. unknown is as for symx.Path.Sat.
func divergeSat(p *symx.Path, eq *sym.Expr) (sat, unknown bool) {
	for _, conj := range sym.Conjuncts(eq) {
		s, u := p.Sat(sym.Not(conj))
		if s {
			return true, false
		}
		unknown = unknown || u
	}
	return false, unknown
}

// Unknown counts the paths whose classification hit the solver budget.
// A budget-truncated exploration that left no surviving paths counts as
// one unknown, so the pair can never silently read as "no feasible
// executions".
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

// Summary describes a pair's commutativity in one line. Budget-truncated
// classifications are called out so an under-approximated pair is never
// read as "never commutes".
func (r *PairResult) Summary() string {
	nc, nd := 0, 0
	for _, p := range r.Paths {
		if p.Commutes {
			nc++
		}
		if p.CanDiverge {
			nd++
		}
	}
	s := fmt.Sprintf("%s x %s: %d paths, %d commutative, %d order-dependent",
		r.OpA, r.OpB, len(r.Paths), nc, nd)
	if nu := r.Unknown(); nu > 0 {
		s += fmt.Sprintf(", %d unknown (solver budget exhausted)", nu)
	}
	return s
}
