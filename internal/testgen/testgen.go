// Package testgen implements COMMUTER's TESTGEN component (§5.2 of the
// paper): it converts ANALYZER's per-path commutativity conditions into
// concrete test cases, aiming for conflict coverage — for each code path it
// enumerates satisfying assignments that differ in their pattern of equal
// and distinct values (isomorphism classes), because different aliasing
// patterns exercise different data-structure access patterns in an
// implementation even along one model path.
//
// testgen is generic over the interface specification (spec.Spec): the
// only spec-specific step — turning a solver witness into a concrete
// initial state — is delegated to the spec's Concretizer.
package testgen

import (
	"fmt"

	"repro/internal/analyzer"
	"repro/internal/kernel"
	"repro/internal/spec"
	"repro/internal/sym"
	"repro/internal/symx"
)

// Options tunes generation.
type Options struct {
	// MaxTestsPerPath caps the isomorphism classes enumerated per
	// commutative path (default 4).
	MaxTestsPerPath int
	// Solver overrides the default solver.
	Solver *sym.Solver
}

// GenerateChecked produces concrete test cases for every commutative path
// of a pair analysis performed against the spec sp, plus the truncation
// count: the number of commutative paths whose class enumeration ran out
// of solver budget, so isomorphism classes (and hence tests) may have been
// dropped. Callers that report coverage treat such pairs as
// under-approximated, like the analyzer's Unknown paths.
func GenerateChecked(sp spec.Spec, pr analyzer.PairResult, opt Options) ([]kernel.TestCase, int) {
	maxPer := opt.MaxTestsPerPath
	if maxPer == 0 {
		maxPer = 4
	}
	solver := opt.Solver
	if solver == nil {
		solver = &sym.Solver{}
	}
	// The pair's ops and concretizer are invariant across paths and
	// tests; resolve them once, not per materialized test.
	opA, errA := spec.OpByName(sp, pr.OpA)
	opB, errB := spec.OpByName(sp, pr.OpB)
	if errA != nil || errB != nil {
		// The PairResult belongs to a different spec than sp: an API
		// misuse, not an input condition — fail loudly rather than
		// silently generating nothing.
		panic(fmt.Sprintf("testgen: pair %s/%s (spec %q) generated against spec %q",
			pr.OpA, pr.OpB, pr.Spec, sp.Name()))
	}
	ops := [2]*spec.Op{opA, opB}
	conc := sp.Concretizer()
	var tests []kernel.TestCase
	truncated := 0
	seen := map[string]bool{}
	for pi, path := range pr.Paths {
		if !path.Commutes {
			continue
		}
		vars := classVars(path.CommuteCond, path.VarKinds)
		// One enumeration pass collects a representative per isomorphism
		// class: each model is kept if no previously kept model's class
		// formula covers it. This keeps the same representatives, in the
		// same order, as restarting Solve on cond ∧ ¬class(m₁) ∧ … (the
		// class negations only prune — they add no variables or
		// constants, so the candidate domains and assignment order are
		// untouched), without re-enumerating each restart's prefix. The
		// trade: filtering happens at the leaves, so covered regions are
		// not pruned at interior depths the way conjoined ¬class
		// formulas pruned them. With this model's deliberately tiny
		// domains the covered-leaf walk is cheap, and a path that does
		// exhaust the (single, shared) step budget is reported through
		// the truncation count instead of failing silently.
		ti := 0
		var classes []*sym.Expr
		solver.Enumerate(path.CommuteCond, func(m sym.Model) bool {
			for _, cf := range classes {
				if v, ok := m.TryEval(cf); ok && v.Bool {
					return true // same class as a kept model; keep searching
				}
			}
			id := fmt.Sprintf("%s_%s_path%d_test%d", pr.OpA, pr.OpB, pi, ti)
			tc, err := materialize(ops, conc, pr.Config, id, path, m)
			// Distinct isomorphism classes can materialize identically
			// when the distinguishing variables don't reach the concrete
			// state (e.g. content values on error paths); emit one copy.
			if err == nil && !seen[contentKey(tc)] {
				seen[contentKey(tc)] = true
				tests = append(tests, tc)
			}
			cf := classFormula(m, vars)
			ti++
			if cf.IsTrue() {
				// Degenerate class formula (no class-distinguishing
				// variables): every model is in this class, so there is
				// nothing further to enumerate — matching the restart
				// formulation, where conjoining ¬true made the next
				// query unsatisfiable immediately.
				return false
			}
			classes = append(classes, cf)
			return ti < maxPer
		})
		if solver.Budget() {
			truncated++
		}
	}
	return tests, truncated
}

// contentKey renders a test case's distinguishing content (everything but
// the ID) for deduplication.
func contentKey(tc kernel.TestCase) string {
	return fmt.Sprintf("%v|%v|%+v", tc.Calls[0], tc.Calls[1], tc.Setup)
}

// classVars selects the variables whose equality pattern defines a test's
// isomorphism class: arguments and initial state, but not nondeterministic
// outputs.
func classVars(cond *sym.Expr, kinds map[string]symx.VarKind) []*sym.Expr {
	var out []*sym.Expr
	for _, v := range sym.Vars(cond) {
		if kinds[v.Name] != symx.KindNondet {
			out = append(out, v)
		}
	}
	return out
}

// classFormula captures the isomorphism class of model m over vars: boolean
// variables keep their values, and every same-sort pair of non-boolean
// variables keeps its equal/distinct relation. Negating this formula forces
// the next enumerated assignment into a different class — the paper's
// "negates any equivalent assignment" step.
func classFormula(m sym.Model, vars []*sym.Expr) *sym.Expr {
	var conj []*sym.Expr
	for i, x := range vars {
		xv, ok := m[x.Name]
		if !ok {
			continue
		}
		if x.Sort.Kind == sym.KindBool {
			if xv.Bool {
				conj = append(conj, x)
			} else {
				conj = append(conj, sym.Not(x))
			}
			continue
		}
		for _, y := range vars[i+1:] {
			if y.Sort != x.Sort {
				continue
			}
			yv, ok := m[y.Name]
			if !ok {
				continue
			}
			if xv.Int == yv.Int {
				conj = append(conj, sym.Eq(x, y))
			} else {
				conj = append(conj, sym.Ne(x, y))
			}
		}
	}
	return sym.And(conj...)
}

// materialize renders one satisfying assignment as a concrete test case:
// concrete arguments for the two calls (an argument named "proc" selects
// the calling process by convention), fixed up by the spec's Concretizer
// under cfg — the configuration the pair was analysed under, so e.g. the
// posix spec marks open/pipe calls O_ANYFD exactly when the model allocated
// descriptors nondeterministically — plus the initial state mined by the
// spec's Concretizer from the union of initial-state probes of both
// permutations' symbolic states.
func materialize(ops [2]*spec.Op, conc spec.Concretizer, cfg spec.Config, id string, path analyzer.PairPath, m sym.Model) (kernel.TestCase, error) {
	tc := kernel.TestCase{ID: id}
	for slot, op := range ops {
		call := kernel.Call{Op: op.Name, Args: map[string]int64{}}
		for _, as := range op.Args {
			name := fmt.Sprintf("%s.%d.%s", op.Name, slot, as.Name)
			v := sym.Var(name, as.Sort)
			switch {
			case as.Name == "proc":
				if spec.EvalBool(m, v, false) {
					call.Proc = 1
				}
			case as.Sort.Kind == sym.KindBool:
				if spec.EvalBool(m, v, false) {
					call.Args[as.Name] = 1
				} else {
					call.Args[as.Name] = 0
				}
			default:
				call.Args[as.Name] = spec.EvalInt(m, v, max64(as.Min, 0))
			}
		}
		conc.FixupCall(cfg, &call)
		tc.Calls[slot] = call
	}
	setup, err := conc.Setup(path.StateA, path.StateB, m)
	if err != nil {
		return tc, err
	}
	tc.Setup = setup
	// Content-address the setup so the checker can batch tests that share
	// an initial state without recomputing the fingerprint per test.
	tc.SetupID = setup.Fingerprint()
	return tc, nil
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
