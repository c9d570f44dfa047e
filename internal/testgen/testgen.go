// Package testgen implements COMMUTER's TESTGEN component (§5.2 of the
// paper): it converts ANALYZER's per-path commutativity conditions into
// concrete test cases, aiming for conflict coverage — for each code path it
// enumerates satisfying assignments that differ in their pattern of equal
// and distinct values (isomorphism classes), because different aliasing
// patterns exercise different data-structure access patterns in an
// implementation even along one model path.
//
// testgen is generic over the interface specification (spec.Spec): the
// only spec-specific steps — turning a solver witness into a concrete
// initial state, and adjusting each call — are the spec's PlanSetup and
// FixupCall.
package testgen

import (
	"fmt"
	"maps"
	"slices"
	"strconv"

	"repro/internal/analyzer"
	"repro/internal/kernel"
	"repro/internal/spec"
	"repro/internal/sym"
	"repro/internal/symx"
)

// DefaultMaxTestsPerPath is the per-path cap a zero Options.MaxTestsPerPath
// means, here and wherever the cap is folded into a content address.
const DefaultMaxTestsPerPath = 4

// Options tunes generation.
type Options struct {
	// MaxTestsPerPath caps the isomorphism classes enumerated per
	// commutative path (default DefaultMaxTestsPerPath).
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
	tests, truncated, _ := generate(sp, pr, opt)
	return tests, truncated
}

// leafCounts tallies what the enumeration's leaf did: models the search
// reached, and those of a class not seen on their path, which are
// materialised (the tests kept are the ones whose content is new as well).
type leafCounts struct{ visited, materialized int }

func generate(sp spec.Spec, pr analyzer.PairResult, opt Options) ([]kernel.TestCase, int, leafCounts) {
	var n leafCounts
	maxPer := opt.MaxTestsPerPath
	if maxPer == 0 {
		maxPer = DefaultMaxTestsPerPath
	}
	solver := opt.Solver
	if solver == nil {
		solver = &sym.Solver{}
	}
	// The pair's ops and their argument variables are invariant across
	// paths and tests; resolve them once, not per materialized test. A
	// model reads a variable by its id, whatever scope it was made in.
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
	defer solver.Scope().Fold()
	var argVars [2][]*sym.Expr
	for slot, op := range ops {
		for _, as := range op.Args {
			argVars[slot] = append(argVars[slot], solver.Scope().Var(op.Name+"."+strconv.Itoa(slot)+"."+as.Name, as.Sort))
		}
	}
	var tests []kernel.TestCase
	truncated := 0
	// The leaf's scratch, reused across models and paths: the class
	// signature and the two calls (cloned when a test is kept).
	var sig sigScratch
	calls := [2]kernel.Call{{Op: opA.Name, Args: map[string]int64{}}, {Op: opB.Name, Args: map[string]int64{}}}
	seen := map[string][]int{} // SetupID -> the kept tests starting from it
	classes := map[string]bool{}
	var cond []*sym.Expr
	for pi, path := range pr.Paths {
		if !path.Commutes {
			continue
		}
		cond = condConjs(cond[:0], path)
		vars := classVars(cond, path.VarKinds)
		manyClasses := distinguishes(vars)
		// What mining a setup needs of the path's two states is resolved
		// here, once, and evaluated per model below.
		setupOf := sp.PlanSetup(path.StateA, path.StateB)
		// One enumeration pass collects a representative per isomorphism
		// class: each model is kept if no previously kept model has its
		// class signature. This keeps the same representatives, in the
		// same order, as restarting a first-model search on cond ∧ ¬class(m₁) ∧ … (the
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
		clear(classes)
		solver.EnumerateConjs(cond, func(m sym.Model) bool {
			n.visited++
			cls := sig.classSignature(m, vars)
			if classes[string(cls)] {
				return true // same class as a kept model; keep searching
			}
			classes[string(cls)] = true
			n.materialized++
			// The calls, fixed up under the configuration the pair was
			// analysed under: the posix spec marks open/pipe O_ANYFD exactly
			// when the model allocated descriptors nondeterministically.
			for slot := range calls {
				fillCall(&calls[slot], ops[slot], argVars[slot], m)
				sp.FixupCall(pr.Config, &calls[slot])
			}
			// The initial state, mined by the spec's PlanSetup from the
			// union of initial-state probes of both permutations' symbolic
			// states, and its content address, so the checker can batch
			// tests that share an initial state without recomputing the
			// fingerprint per test.
			setup := setupOf(m)
			setupID := setup.Fingerprint()
			// Distinct isomorphism classes can materialize identically
			// when the distinguishing variables don't reach the concrete
			// state (e.g. content values on error paths); emit one copy.
			// SetupID is an exact rendering of the setup, so a kept test
			// with this setup and these calls has the whole content but
			// the ID.
			dup := slices.ContainsFunc(seen[setupID], func(i int) bool {
				return sameCall(tests[i].Calls[0], calls[0]) && sameCall(tests[i].Calls[1], calls[1])
			})
			if !dup {
				seen[setupID] = append(seen[setupID], len(tests))
				tc := kernel.TestCase{
					ID:    fmt.Sprintf("%s_%s_path%d_test%d", pr.OpA, pr.OpB, pi, ti),
					Setup: setup, SetupID: setupID, Calls: calls,
				}
				for slot := range tc.Calls {
					tc.Calls[slot].Args = maps.Clone(calls[slot].Args)
				}
				tests = append(tests, tc)
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
	return tests, truncated, n
}

// condConjs appends to dst the path's commutativity condition PC ∧ Eq as
// the concatenation of its two conjunct lists: enumerating that is
// enumerating the conjunction (sym.Solver.EnumerateConjs), which is never
// built.
func condConjs(dst []*sym.Expr, p analyzer.Path) []*sym.Expr {
	return append(append(dst, sym.Conjuncts(p.PC)...), sym.Conjuncts(p.Eq)...)
}

// classVars selects, among the variables of the conjunction of conjs, sorted
// by name, those whose equality pattern defines a test's isomorphism class:
// arguments and initial state, but not nondeterministic outputs.
func classVars(conjs []*sym.Expr, kinds map[string]symx.VarKind) []*sym.Expr {
	return slices.DeleteFunc(sym.VarsConjs(conjs), func(v *sym.Expr) bool {
		return kinds[v.Name] == symx.KindNondet
	})
}

// sigScratch is classSignature's storage, reused from model to model.
type sigScratch struct {
	vals []int64
	sig  []byte
}

// classSignature renders the isomorphism class of model m over vars, which
// m must bind: boolean variables by their values, and every other variable
// by the position of the first variable of its sort holding the same value
// — which fixes the equal/distinct relation of every same-sort pair and
// nothing else. Two models are in one class exactly when their signatures
// are equal; skipping models of a kept signature is the paper's "negates
// any equivalent assignment" step. The result is valid until the next call.
func (s *sigScratch) classSignature(m sym.Model, vars []*sym.Expr) []byte {
	vals, sig := s.vals[:0], s.sig[:0]
	for i, x := range vars {
		v := m.Int(x, 0)
		vals = append(vals, v)
		if x.Sort.Kind == sym.KindBool {
			sig = append(sig, "ft"[v])
			continue
		}
		first := i
		for j, y := range vars[:i] {
			if y.Sort == x.Sort && vals[j] == v {
				first = j
				break
			}
		}
		sig = strconv.AppendInt(append(sig, ','), int64(first), 10)
	}
	s.vals, s.sig = vals, sig
	return sig
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

// fillCall renders one satisfying assignment's concrete arguments for one
// call into c, whose Args map it reuses (an argument named "proc" selects
// the calling process by convention). vars are op's argument variables,
// "<op>.<slot>.<name>", in op.Args order.
func fillCall(c *kernel.Call, op *spec.Op, vars []*sym.Expr, m sym.Model) {
	c.Proc = 0
	clear(c.Args)
	for i, as := range op.Args {
		switch v := vars[i]; {
		case as.Name == "proc":
			c.Proc = int(m.Int(v, 0))
		case as.Sort.Kind == sym.KindBool:
			c.Args[as.Name] = m.Int(v, 0)
		default:
			c.Args[as.Name] = m.Int(v, max(as.Min, 0))
		}
	}
}

// sameCall reports whether two calls of one op are the same call: what
// comparing their Call.String would, unrendered.
func sameCall(a, b kernel.Call) bool { return a.Proc == b.Proc && maps.Equal(a.Args, b.Args) }
