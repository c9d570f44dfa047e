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
	"strconv"

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
		manyClasses := distinguishes(vars)
		// One enumeration pass collects a representative per isomorphism
		// class: each model is kept if no previously kept model has its
		// class signature. This keeps the same representatives, in the
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
		classes := map[string]bool{}
		solver.Enumerate(path.CommuteCond, func(m sym.Model) bool {
			sig := classSignature(m, vars)
			if classes[sig] {
				return true // same class as a kept model; keep searching
			}
			classes[sig] = true
			id := fmt.Sprintf("%s_%s_path%d_test%d", pr.OpA, pr.OpB, pi, ti)
			tc, err := materialize(ops, conc, pr.Config, id, path, m)
			// Distinct isomorphism classes can materialize identically
			// when the distinguishing variables don't reach the concrete
			// state (e.g. content values on error paths); emit one copy.
			// SetupID is an exact rendering of the setup, so the key is
			// the test's whole content but its ID.
			if err == nil {
				key := tc.Calls[0].String() + "|" + tc.Calls[1].String() + "|" + tc.SetupID
				if !seen[key] {
					seen[key] = true
					tests = append(tests, tc)
				}
			}
			ti++
			// With nothing to tell two models apart every model is in
			// this class, so there is nothing further to enumerate —
			// matching the restart formulation, where conjoining ¬true
			// made the next query unsatisfiable immediately.
			return manyClasses && ti < maxPer
		})
		if solver.Budget() {
			truncated++
		}
	}
	return tests, truncated
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

// classSignature renders the isomorphism class of model m over vars, which
// m must bind: boolean variables by their values, and every other variable
// by the position of the first variable of its sort holding the same value
// — which fixes the equal/distinct relation of every same-sort pair and
// nothing else. Two models are in one class exactly when their signatures
// are equal; skipping models of a kept signature is the paper's "negates
// any equivalent assignment" step.
func classSignature(m sym.Model, vars []*sym.Expr) string {
	vals := make([]sym.Value, len(vars))
	sig := make([]byte, 0, 3*len(vars))
	for i, x := range vars {
		vals[i] = m[x.Name]
		if x.Sort.Kind == sym.KindBool {
			if vals[i].Bool {
				sig = append(sig, 't')
			} else {
				sig = append(sig, 'f')
			}
			continue
		}
		first := i
		for j, y := range vars[:i] {
			if y.Sort == x.Sort && vals[j].Int == vals[i].Int {
				first = j
				break
			}
		}
		sig = strconv.AppendInt(append(sig, ','), int64(first), 10)
	}
	return string(sig)
}

// distinguishes reports whether two models over vars can differ in class:
// there is a boolean, or two non-booleans share a sort.
func distinguishes(vars []*sym.Expr) bool {
	for i, x := range vars {
		if x.Sort.Kind == sym.KindBool {
			return true
		}
		for _, y := range vars[:i] {
			if y.Sort == x.Sort {
				return true
			}
		}
	}
	return false
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
