package analyzer

import (
	"context"
	"fmt"

	"repro/internal/spec"
	"repro/internal/sym"
	"repro/internal/symx"
)

// SetPath is one feasible joint path of a multi-operation analysis.
type SetPath struct {
	// PC is the joint path condition across every executed permutation.
	PC *sym.Expr
	// Eq states the full SIM condition: return values equal across all
	// permutations of the full set, final states equivalent, and — for
	// sets larger than pairs (§5.1) — intermediate states equivalent for
	// every permutation of every subset.
	Eq *sym.Expr
	// CommuteCond is PC ∧ Eq.
	CommuteCond *sym.Expr
	// Commutes and CanDiverge classify the path as for pairs.
	Commutes   bool
	CanDiverge bool
	// Unknown marks a budget-truncated classification, as for pairs.
	Unknown bool
	// VarKinds classifies the path's variables.
	VarKinds map[string]symx.VarKind
}

// SetResult aggregates a set analysis.
type SetResult struct {
	// Spec names the interface specification the set belongs to.
	Spec  string
	Ops   []string
	Paths []SetPath
	// Budgeted mirrors PairResult.Budgeted: exploration hit the solver
	// budget, so even an empty Paths list means unknown rather than "no
	// feasible executions".
	Budgeted bool
}

// CommutativePaths returns the paths on which the set can commute.
func (r *SetResult) CommutativePaths() []SetPath {
	var out []SetPath
	for _, p := range r.Paths {
		if p.Commutes {
			out = append(out, p)
		}
	}
	return out
}

// Summary describes the analysis in one line.
func (r *SetResult) Summary() string {
	nc, nd := 0, 0
	for _, p := range r.Paths {
		if p.Commutes {
			nc++
		}
		if p.CanDiverge {
			nd++
		}
	}
	names := ""
	for i, n := range r.Ops {
		if i > 0 {
			names += " x "
		}
		names += n
	}
	return fmt.Sprintf("%s: %d paths, %d commutative, %d order-dependent",
		names, len(r.Paths), nc, nd)
}

// permutations enumerates index permutations of 0..n-1.
func permutations(n int) [][]int {
	var out [][]int
	idx := make([]int, n)
	used := make([]bool, n)
	var rec func(d int)
	rec = func(d int) {
		if d == n {
			cp := make([]int, n)
			copy(cp, idx)
			out = append(out, cp)
			return
		}
		for i := 0; i < n; i++ {
			if !used[i] {
				used[i] = true
				idx[d] = i
				rec(d + 1)
				used[i] = false
			}
		}
	}
	rec(0)
	return out
}

// subsets enumerates the index subsets of size >= 2 (excluding the full
// set, which the main permutation sweep covers).
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

// AnalyzeSet generalizes AnalyzePairCtx to op sets of any size (the paper
// typically uses pairs; triples exercise SIM's monotonicity requirement).
// Every permutation of the full set runs from the shared symbolic initial
// state; additionally, every permutation of every proper subset runs so
// intermediate-state equivalence can be required, which is what makes the
// resulting condition monotonic (SIM rather than just SI).
func AnalyzeSet(sp spec.Spec, ops []*spec.Op, opt Options) SetResult {
	if len(ops) < 2 {
		panic("analyzer: AnalyzeSet wants at least two operations")
	}
	solver := opt.Solver
	if solver == nil {
		solver = &sym.Solver{}
	}
	maxPaths := opt.MaxPaths
	if maxPaths == 0 {
		maxPaths = 8192
	}

	type setData struct{ eq *sym.Expr }
	fullPerms := permutations(len(ops))
	// Model execution must be deterministic across path replays, so the
	// subset permutation groups are an ordered slice, not a map.
	var subPermGroups [][][]int
	for _, sub := range subsets(len(ops)) {
		var group [][]int
		for _, p := range permutations(len(sub)) {
			ordered := make([]int, len(sub))
			for i, pi := range p {
				ordered[i] = sub[pi]
			}
			group = append(group, ordered)
		}
		subPermGroups = append(subPermGroups, group)
	}

	// The signature supplies no context; exploration under one that is
	// never cancelled cannot fail.
	paths, budgeted, _ := symx.RunCtx(context.TODO(), func(c *symx.Context) any {
		args := make([][]*sym.Expr, len(ops))
		for i, op := range ops {
			args[i] = spec.MakeArgs(c, op, fmt.Sprint(i))
		}
		run := func(order []int) (spec.State, [][]*sym.Expr) {
			st := sp.NewState(c, opt.Config)
			x := &spec.Exec{C: c, S: st, Cfg: opt.Config}
			rets := make([][]*sym.Expr, len(ops))
			for _, i := range order {
				rets[i] = ops[i].Exec(x, fmt.Sprint(i), args[i])
			}
			return st, rets
		}
		// Subset runs execute only part of the set; rets for absent ops
		// stay nil and are not compared.

		var conj []*sym.Expr
		// Full-set permutations: returns and final states must agree.
		st0, rets0 := run(fullPerms[0])
		for _, perm := range fullPerms[1:] {
			st, rets := run(perm)
			for i := range ops {
				conj = append(conj, spec.RetEq(rets0[i], rets[i]))
			}
			conj = append(conj, spec.Equivalent(c, st0, st))
		}
		// Proper subsets: intermediate states must agree across each
		// subset's permutations (the paper's extra condition for sets
		// larger than pairs).
		for _, perms := range subPermGroups {
			base, _ := run(perms[0])
			for _, perm := range perms[1:] {
				st, _ := run(perm)
				conj = append(conj, spec.Equivalent(c, base, st))
			}
		}
		return setData{eq: sym.And(conj...)}
	}, symx.Options{MaxPaths: maxPaths, Solver: solver})

	res := SetResult{Spec: sp.Name(), Budgeted: budgeted}
	for _, op := range ops {
		res.Ops = append(res.Ops, op.Name)
	}
	for _, p := range paths {
		d := p.Result.(setData)
		cc := sym.And(p.PC, d.eq)
		commutes, cu := p.Sat(d.eq)
		diverges, du := divergeSat(&p, d.eq)
		res.Paths = append(res.Paths, SetPath{
			PC:          p.PC,
			Eq:          d.eq,
			CommuteCond: cc,
			Commutes:    commutes,
			CanDiverge:  diverges,
			Unknown:     p.Budgeted || cu || du,
			VarKinds:    p.VarKinds,
		})
	}
	return res
}
