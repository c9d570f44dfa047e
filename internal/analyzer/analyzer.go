// Package analyzer implements COMMUTER's ANALYZER component (§5.1 of the
// paper): it symbolically executes all permutations of a set of modeled
// operations from a shared unconstrained initial state, and computes the
// precise conditions — in terms of operation arguments and system state —
// under which the set commutes.
//
// The commutativity test codifies SIM commutativity (§3.2, specialized as
// in §5.1): a set commutes on a path when each operation's return value is
// equal in every permutation and the final states are indistinguishable
// through the interface, allowing nondeterministic outputs (freshly
// allocated identifiers) to be chosen equal; for sets larger than pairs the
// same must hold of every permutation of every proper subset, which is
// what makes the condition monotonic. There is one analysis (analyzeOps):
// AnalyzeSetCtx exposes it for any set and AnalyzePairCtx is its projection
// onto two operations, the case the rest of the pipeline runs on.
//
// A path carries what TESTGEN reads — the path condition, the SIM
// condition, whether their conjunction is satisfiable, and whether that
// answer is a proof — and nothing else is decided per path. The converse
// question (can the set be order-distinguished on this path?) has one
// reader, `commuter analyze`, and is asked there, after the fact, through
// CanDiverge.
package analyzer

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/spec"
	"repro/internal/sym"
	"repro/internal/symx"
)

// SetPath is one feasible joint path of an analysis: what ANALYZE
// establishes about it, whatever the size of the operation set.
//
// The path's commutativity condition, PC ∧ Eq, is not kept built: its one
// reader in a sweep, TESTGEN, enumerates the two conjunct lists as they
// are (sym.Solver.EnumerateConjs), and CommuteCond builds the conjunction
// for the readers that print or describe it.
type SetPath struct {
	// PC is the joint path condition across every executed permutation.
	PC *sym.Expr
	// Eq states the full SIM condition: return values equal across all
	// permutations of the full set, final states equivalent, and — for
	// sets larger than pairs (§5.1) — intermediate states equivalent for
	// every permutation of every subset.
	Eq *sym.Expr
	// Commutes reports whether PC ∧ Eq is satisfiable: some initial state
	// and arguments on this path make the set commute.
	Commutes bool
	// Unknown reports that path exploration was truncated or the commute
	// search exhausted the solver's step budget: a false Commutes is then
	// an under-approximation — "not proven", not "proven not" — and the
	// tests generated from the set are a lower bound.
	Unknown bool
	// VarKinds classifies the symbolic variables of the path's exploration
	// (symx.Path.VarKinds): every variable of the path, and its siblings'.
	VarKinds map[string]symx.VarKind
}

// CommuteCond builds PC ∧ Eq: the commutativity condition of this path.
func (p SetPath) CommuteCond() *sym.Expr { return sym.And(p.PC, p.Eq) }

// classified is what the two path types share: PairPath satisfies it
// through its embedded SetPath.
type classified interface{ verdict() SetPath }

func (p SetPath) verdict() SetPath { return p }

// PairPath is one feasible joint path of the two permutations of a pair.
type PairPath struct {
	SetPath
	// StateA and StateB are the final symbolic states of the two
	// permutations (op0;op1 and op1;op0); the spec's Concretizer mines
	// their initial-probe entries to materialize concrete initial states.
	StateA, StateB spec.State
}

// result is what the analysis of a set of any size reports.
type result[P classified] struct {
	// Spec names the interface specification the set belongs to; the
	// pipeline threads it through test generation and caching so results
	// of different specs can never be conflated.
	Spec string
	// Ops names the analysed operations, in slot order.
	Ops []string
	// Paths holds every feasible joint path.
	Paths []P
	// Budgeted reports that path exploration was truncated: a
	// feasibility check hit the solver budget, or the MaxPaths cap was
	// reached with branches still unexplored. When true every path
	// carries Unknown; it is recorded separately so a truncation harsh
	// enough to leave zero surviving paths still reads as unknown, not
	// as "no feasible executions".
	Budgeted bool
}

// SetResult aggregates a set analysis.
type SetResult = result[SetPath]

// PairResult aggregates analysis of one operation pair.
type PairResult struct {
	result[PairPath]
	OpA, OpB string
	// Config is the spec configuration the pair was analysed under;
	// TESTGEN concretizes calls under the same one.
	Config spec.Config
}

// CommutativePaths returns the paths on which the set can commute.
func (r *result[P]) CommutativePaths() []P {
	var out []P
	for _, p := range r.Paths {
		if p.verdict().Commutes {
			out = append(out, p)
		}
	}
	return out
}

// Unknown counts the paths whose classification is not a proof. A
// truncated exploration that left no surviving paths counts as one
// unknown, so the set can never silently read as "no feasible executions".
func (r *result[P]) Unknown() int {
	n := 0
	for _, p := range r.Paths {
		if p.verdict().Unknown {
			n++
		}
	}
	if n == 0 && r.Budgeted {
		return 1
	}
	return n
}

// Summary describes the set's commutativity in one line. Budget-truncated
// classifications are called out so an under-approximated set is never
// read as "never commutes".
func (r *result[P]) Summary() string {
	s := fmt.Sprintf("%s: %d paths, %d commutative",
		strings.Join(r.Ops, " x "), len(r.Paths), len(r.CommutativePaths()))
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

// permRun is one permutation's outcome on one path: the final state and
// each op's return vector, indexed like ops (nil for an op a subset run
// leaves out).
type permRun struct {
	state spec.State
	rets  [][]*sym.Expr
}

// pathData is what one joint path's exploration hands to classification:
// the SIM condition and the full-set permutation runs, in permutation
// order.
type pathData struct {
	eq   *sym.Expr
	full []permRun
}

// permutations enumerates the orderings of idx; the first is idx itself.
func permutations(idx []int) [][]int {
	if len(idx) <= 1 {
		return [][]int{append([]int(nil), idx...)}
	}
	var out [][]int
	for i, first := range idx {
		rest := append(append([]int(nil), idx[:i]...), idx[i+1:]...)
		for _, tail := range permutations(rest) {
			out = append(out, append([]int{first}, tail...))
		}
	}
	return out
}

// subsets enumerates the index subsets of 0..n-1 of size 2..n-1 (the
// full set is the main permutation sweep).
func subsets(n int) [][]int {
	var out [][]int
	for mask := 1; mask < 1<<n; mask++ {
		var s []int
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				s = append(s, i)
			}
		}
		if len(s) >= 2 && len(s) < n {
			out = append(out, s)
		}
	}
	return out
}

// analyzeOps is the ANALYZER: every permutation of ops runs from the shared
// symbolic initial state and — for more than two ops — so does every
// permutation of every proper subset, so that intermediate-state
// equivalence can be required (SIM rather than just SI). Each feasible
// joint path is then classified, and project shapes it for the caller.
//
// Cancellation is observed between path replays, between per-path
// classifications, and — via the solver's Stop hook — inside individual
// satisfiability searches, so an abandoned analysis stops promptly. On
// cancellation it returns ctx.Err() and a zero result; nothing partial
// escapes.
func analyzeOps[P classified](ctx context.Context, sp spec.Spec, ops []*spec.Op, opt Options, project func(SetPath, []permRun) P) (result[P], error) {
	if len(ops) < 2 {
		panic("analyzer: an analysis wants at least two operations")
	}
	solver := opt.Solver
	if solver == nil {
		solver = &sym.Solver{Stop: func() bool { return ctx.Err() != nil }}
	}
	all := make([]int, len(ops))
	slots := make([]string, len(ops))
	for i := range ops {
		all[i], slots[i] = i, fmt.Sprint(i)
	}
	fullPerms := permutations(all)
	// Model execution must be deterministic across path replays, so the
	// subset permutation groups are an ordered slice, not a map.
	var subPermGroups [][][]int
	for _, sub := range subsets(len(ops)) {
		subPermGroups = append(subPermGroups, permutations(sub))
	}

	paths, budgeted, err := symx.RunCtx(ctx, func(c *symx.Context) any {
		args := make([][]*sym.Expr, len(ops))
		for i, op := range ops {
			args[i] = spec.MakeArgs(c, op, slots[i])
		}
		run := func(order []int) permRun {
			st := sp.NewState(c, opt.Config)
			x := &spec.Exec{C: c, S: st, Cfg: opt.Config}
			rets := make([][]*sym.Expr, len(ops))
			for _, i := range order {
				rets[i] = ops[i].Exec(x, slots[i], args[i])
			}
			return permRun{state: st, rets: rets}
		}

		// Full-set permutations: returns and final states must agree. Every
		// requirement lands in one flat conjunct list, conjoined once.
		var conj []*sym.Expr
		full := make([]permRun, len(fullPerms))
		for pi, perm := range fullPerms {
			full[pi] = run(perm)
			if pi == 0 {
				continue
			}
			for i := range ops {
				conj = append(conj, spec.RetEq(full[0].rets[i], full[pi].rets[i]))
			}
			conj = spec.Equivalent(conj, c, full[0].state, full[pi].state)
		}
		// Proper subsets: intermediate states must agree across each
		// subset's permutations (the paper's extra condition for sets
		// larger than pairs).
		for _, perms := range subPermGroups {
			base := run(perms[0])
			for _, perm := range perms[1:] {
				conj = spec.Equivalent(conj, c, base.state, run(perm).state)
			}
		}
		return pathData{eq: sym.And(conj...), full: full}
	}, symx.Options{MaxPaths: opt.MaxPaths, Solver: solver})
	if err != nil {
		return result[P]{}, err
	}

	res := result[P]{Spec: sp.Name(), Budgeted: budgeted}
	for _, op := range ops {
		res.Ops = append(res.Ops, op.Name)
	}
	for i := range paths {
		if err := ctx.Err(); err != nil {
			return result[P]{}, err
		}
		p := &paths[i]
		d := p.Result.(pathData)
		commutes, unknown := p.Sat(d.eq)
		res.Paths = append(res.Paths, project(SetPath{
			PC:       p.PC,
			Eq:       d.eq,
			Commutes: commutes,
			Unknown:  p.Budgeted || unknown,
			VarKinds: p.VarKinds,
		}, d.full))
	}
	// Cancellation during the last path's classification would otherwise
	// escape as a "successful" result whose Stop-hook-aborted searches
	// read as spurious Unknowns; nothing partial may escape.
	if err := ctx.Err(); err != nil {
		return result[P]{}, err
	}
	return res, nil
}

// AnalyzeSetCtx computes the SIM commutativity conditions of an operation
// set of any size ≥ 2 (the paper typically uses pairs; triples exercise
// SIM's monotonicity requirement). A cancelled ctx stops it promptly with
// ctx.Err() and a zero result.
func AnalyzeSetCtx(ctx context.Context, sp spec.Spec, ops []*spec.Op, opt Options) (SetResult, error) {
	return analyzeOps(ctx, sp, ops, opt, func(p SetPath, _ []permRun) SetPath { return p })
}

// AnalyzePairCtx is the analysis of the pair (opA, opB) — operations of
// the spec sp — keeping what TESTGEN needs of the two permutation runs.
// Cancellation is as for AnalyzeSetCtx.
func AnalyzePairCtx(ctx context.Context, sp spec.Spec, opA, opB *spec.Op, opt Options) (PairResult, error) {
	res, err := analyzeOps(ctx, sp, []*spec.Op{opA, opB}, opt, func(p SetPath, full []permRun) PairPath {
		a, b := full[0], full[1] // op0;op1 and op1;op0
		return PairPath{
			SetPath: p,
			StateA:  a.state, StateB: b.state,
		}
	})
	if err != nil {
		return PairResult{}, err
	}
	return PairResult{result: res, OpA: opA.Name, OpB: opB.Name, Config: opt.Config}, nil
}
