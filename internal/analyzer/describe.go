package analyzer

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"repro/internal/sym"
	"repro/internal/symx"
)

// Describe renders a pair's commutativity conditions as human-readable
// clauses in the style of §5.1's bullet list for rename×rename. For every
// commutative path it determines, per predicate of interest (equalities
// between same-sort arguments, argument flags, and name-existence facts),
// whether the commutativity condition implies it, implies its negation, or
// leaves it free, then merges identical descriptions. The searches stop
// when ctx ends; the clauses returned then are incomplete, and the caller
// must check ctx.Err() before using them.
func Describe(ctx context.Context, pr PairResult) []string {
	solver := &sym.Solver{Stop: func() bool { return ctx.Err() != nil }}
	seen := map[string]bool{}
	var out []string
	for _, p := range pr.Paths {
		if ctx.Err() != nil {
			return nil
		}
		if !p.Commutes {
			continue
		}
		desc := describePath(solver, p)
		if desc == "" || seen[desc] {
			continue
		}
		seen[desc] = true
		out = append(out, desc)
	}
	sort.Strings(out)
	return out
}

// CanDiverge answers the question ANALYZE leaves to its one reader: per
// path of the pair, is PC ∧ ¬Eq satisfiable — do some initial state and
// arguments on it order-distinguish the pair? unknown[i] reports a "no"
// that is not a proof: a search ran out of budget, or ctx ended under it
// (the caller checks ctx.Err(), as after Describe).
func CanDiverge(ctx context.Context, pr PairResult) (diverges, unknown []bool) {
	solver := &sym.Solver{Stop: func() bool { return ctx.Err() != nil }}
	diverges, unknown = make([]bool, len(pr.Paths)), make([]bool, len(pr.Paths))
	for i, p := range pr.Paths {
		diverges[i], unknown[i] = canDiverge(solver, p)
	}
	return diverges, unknown
}

// canDiverge decides one path. Eq is a conjunction, and ¬(c1 ∧ … ∧ cn) is
// satisfiable with PC iff some PC ∧ ¬ci is, so the question decomposes
// into per-conjunct searches whose cones of influence stay narrow.
func canDiverge(solver *sym.Solver, p Path) (diverges, unknown bool) {
	pc := sym.Conjuncts(p.PC)
	for _, c := range sym.Conjuncts(p.Eq) {
		if solver.SatAssumingConjs(pc, sym.Not(c)) {
			return true, false
		}
		unknown = unknown || solver.Budget()
	}
	return false, unknown
}

func describePath(solver *sym.Solver, p Path) string {
	cond := p.CommuteCond()
	argVars := map[string]*sym.Expr{}
	for name, kind := range p.VarKinds {
		if kind == symx.KindArg {
			argVars[name] = nil
		}
	}
	// Recover sorts from the condition's variable set, which also keeps
	// only the arguments the condition mentions.
	for _, v := range sym.Vars(cond) {
		if _, ok := argVars[v.Name]; ok {
			argVars[v.Name] = v
		}
	}
	var names []string
	for n, v := range argVars {
		if v != nil {
			names = append(names, n)
		}
	}
	sort.Strings(names)

	var clauses []string
	// A search the budget (or cancellation) cut short refutes nothing: only
	// a complete search that found no model is a proof.
	refuted := func(e *sym.Expr) bool {
		return !solver.SatAssuming(cond, e) && !solver.Budget()
	}
	implied := func(pred *sym.Expr) int {
		// 1: implied, -1: negation implied, 0: free (or unknown).
		switch {
		case refuted(sym.Not(pred)):
			return 1
		case refuted(pred):
			return -1
		}
		return 0
	}

	// Equalities between same-sort argument pairs.
	for i, a := range names {
		va := argVars[a]
		for _, b := range names[i+1:] {
			vb := argVars[b]
			if va.Sort != vb.Sort || va.Sort.Kind == sym.KindBool {
				continue
			}
			switch implied(sym.Eq(va, vb)) {
			case 1:
				clauses = append(clauses, short(a)+" = "+short(b))
			case -1:
				clauses = append(clauses, short(a)+" ≠ "+short(b))
			}
		}
	}
	// Boolean argument flags.
	for _, a := range names {
		va := argVars[a]
		if va.Sort.Kind != sym.KindBool {
			continue
		}
		switch implied(va) {
		case 1:
			clauses = append(clauses, short(a))
		case -1:
			clauses = append(clauses, "!"+short(a))
		}
	}
	// Existence facts from the initial state: an uninterpreted-sort
	// argument used directly as a dictionary key appears as a
	// "<dict>[<arg>].present" state variable (POSIX filename arguments
	// probe the fname directory this way).
	for _, a := range names {
		va := argVars[a]
		if va.Sort.Kind != sym.KindUnint {
			continue
		}
		pvName := presentVarFor(p.VarKinds, a)
		if pvName == "" {
			continue
		}
		pv := solver.Scope().Var(pvName, sym.BoolSort)
		switch implied(pv) {
		case 1:
			clauses = append(clauses, short(a)+" exists")
		case -1:
			clauses = append(clauses, short(a)+" absent")
		}
	}
	if len(clauses) == 0 {
		return "unconditionally"
	}
	return strings.Join(clauses, ", ")
}

// presentVarFor finds the membership variable of the initial-state
// dictionary location keyed by argument a alone: a state variable named
// "<dict>[<a>].present". Candidates are sorted so a (hypothetical) arg
// probing several dictionaries describes deterministically.
func presentVarFor(kinds map[string]symx.VarKind, a string) string {
	suffix := "[" + a + "].present"
	var candidates []string
	for name, kind := range kinds {
		if kind == symx.KindState && strings.HasSuffix(name, suffix) {
			candidates = append(candidates, name)
		}
	}
	if len(candidates) == 0 {
		return ""
	}
	sort.Strings(candidates)
	return candidates[0]
}

// short strips the operation prefix from an argument variable name:
// "rename.0.src" -> "src0".
func short(name string) string {
	parts := strings.Split(name, ".")
	if len(parts) == 3 {
		return fmt.Sprintf("%s%s", parts[2], parts[1])
	}
	return name
}
