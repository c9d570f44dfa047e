// Package testgen implements COMMUTER's TESTGEN component (§5.2 of the
// paper): it converts ANALYZER's per-path commutativity conditions into
// concrete test cases, aiming for conflict coverage — for each code path it
// enumerates satisfying assignments that differ in their pattern of equal
// and distinct values (isomorphism classes), because different aliasing
// patterns exercise different data-structure access patterns in an
// implementation even along one model path.
//
// testgen is generic over the interface specification (spec.Spec): it
// plans and evaluates every dictionary's initial probes itself
// (spec.Probes), and the only spec-specific steps — reading those probes
// into a concrete initial state, and adjusting each call — are the spec's
// SetupMiner and FixupCall.
package testgen

import (
	"bytes"
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
// under-approximated, like the analyzer's Unknown paths. It is one
// Generate on a Generator of its own.
func GenerateChecked(sp spec.Spec, pr analyzer.PairResult, opt Options) ([]kernel.TestCase, int) {
	return NewGenerator(sp).Generate(pr, opt)
}

// Generator is TESTGEN for one spec, kept from pair to pair: the spec's
// SetupMiner, the path's Probes and the leaf's scratch, cleared and
// reused, so that a model the leaf does not keep allocates nothing, and
// only a kept test is copied out of it. A sweep worker keeps one for every
// pair it runs. A Generator serves one goroutine.
type Generator struct {
	sp     spec.Spec
	miner  spec.SetupMiner
	probes spec.Probes
	// The leaf's scratch: the class signature, the kept classes of the
	// path, the two calls (cloned when a test is kept) and the setup's
	// fingerprint.
	sig     sigScratch
	classes classSet
	calls   [2]kernel.Call
	fp      []byte
	// Per pair: the ops' argument variables, a path's conjunct list and
	// class variables, the kept tests, seen, which maps a kept test's
	// SetupID to the indices in tests of those starting from it, and args,
	// the distinct Args maps the kept tests' calls in each slot share.
	argVars [2][]*sym.Expr
	cond    []*sym.Expr
	vars    []*sym.Expr
	tests   []kernel.TestCase
	seen    map[string][]int
	args    [2][]map[string]int64
}

// NewGenerator returns a Generator for sp, with a miner of its own.
func NewGenerator(sp spec.Spec) *Generator {
	return &Generator{
		sp: sp, miner: sp.NewMiner(), seen: map[string][]int{},
		calls: [2]kernel.Call{{Args: map[string]int64{}}, {Args: map[string]int64{}}},
	}
}

// Generate is GenerateChecked on g: the tests of every commutative path of
// pr, which must have been analysed against g's spec, and the truncation
// count. The tests are the caller's; nothing of the pair stays in g. Tests
// with equal setups share one Setup value, and calls in one slot with equal
// arguments one Args map, so the tests are read-only (see kernel.TestCase).
func (g *Generator) Generate(pr analyzer.PairResult, opt Options) ([]kernel.TestCase, int) {
	tests, truncated, _ := g.generate(pr, opt)
	return tests, truncated
}

// leafCounts tallies what the enumeration's leaf did: models the search
// reached, and those of a class not seen on their path, which are
// materialised (the tests kept are the ones whose content is new as well).
type leafCounts struct{ visited, materialized int }

func (g *Generator) generate(pr analyzer.PairResult, opt Options) ([]kernel.TestCase, int, leafCounts) {
	defer g.release()
	var n leafCounts
	maxPer := opt.MaxTestsPerPath
	if maxPer == 0 {
		maxPer = DefaultMaxTestsPerPath
	}
	solver := opt.Solver
	if solver == nil {
		solver = &sym.Solver{}
	}
	defer solver.Scope().Fold()
	ops := g.resolve(pr, solver)
	truncated := 0
	for pi, path := range pr.Paths {
		if !path.Commutes {
			continue
		}
		g.cond = condConjs(g.cond[:0], path)
		g.vars = classVars(g.vars, g.cond, path.VarKinds)
		manyClasses := distinguishes(g.vars)
		// What mining a setup needs of the path's two states is resolved
		// here, once, and evaluated per model below.
		g.probes.Plan(path.DictsA, path.DictsB)
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
		g.classes.reset()
		solver.EnumerateConjs(g.cond, func(m sym.Model) bool {
			n.visited++
			if !g.classes.add(g.sig.classSignature(m, g.vars)) {
				return true // same class as a kept model; keep searching
			}
			n.materialized++
			g.materialize(pr, ops, m, pi, ti)
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
	if len(g.tests) == 0 {
		return nil, truncated, n
	}
	return slices.Clone(g.tests), truncated, n
}

// resolve looks pr's ops up in g's spec and makes their argument variables
// in solver's scope, once per pair: the ops and variables are invariant
// across paths and tests. A model reads a variable by its id, whatever
// scope it was made in.
func (g *Generator) resolve(pr analyzer.PairResult, solver *sym.Solver) [2]*spec.Op {
	opA, errA := spec.OpByName(g.sp, pr.OpA)
	opB, errB := spec.OpByName(g.sp, pr.OpB)
	if errA != nil || errB != nil {
		// The PairResult belongs to a different spec than g's: an API
		// misuse, not an input condition — fail loudly rather than
		// silently generating nothing.
		panic(fmt.Sprintf("testgen: pair %s/%s (spec %q) generated against spec %q",
			pr.OpA, pr.OpB, pr.Spec, g.sp.Name()))
	}
	ops := [2]*spec.Op{opA, opB}
	for slot, op := range ops {
		g.argVars[slot] = g.argVars[slot][:0]
		names := op.ArgNames(strconv.Itoa(slot))
		for i, as := range op.Args {
			g.argVars[slot] = append(g.argVars[slot], solver.Scope().Var(names[i], as.Sort))
		}
		g.calls[slot].Op = op.Name
	}
	return ops
}

// materialize turns model m of path pi, the ti-th class of the path, into
// test calls and a setup, and keeps the test unless one already kept has
// the same content.
func (g *Generator) materialize(pr analyzer.PairResult, ops [2]*spec.Op, m sym.Model, pi, ti int) {
	// The calls, fixed up under the configuration the pair was analysed
	// under: the posix spec marks open/pipe O_ANYFD exactly when the
	// model allocated descriptors nondeterministically.
	for slot := range g.calls {
		fillCall(&g.calls[slot], ops[slot], g.argVars[slot], m)
		g.sp.FixupCall(pr.Config, &g.calls[slot])
	}
	// The initial state, mined by the spec's miner from the union of
	// initial-state probes of both permutations' symbolic states, and its
	// content address, so the checker can batch tests that share an
	// initial state without recomputing the fingerprint per test.
	setup := g.miner.Setup(m, &g.probes)
	g.fp = setup.AppendFingerprint(g.fp[:0])
	// Distinct isomorphism classes can materialize identically when the
	// distinguishing variables don't reach the concrete state (e.g.
	// content values on error paths); emit one copy. SetupID is an exact
	// rendering of the setup, so a kept test with this setup and these
	// calls has the whole content but the ID.
	same := g.seen[string(g.fp)]
	for _, i := range same {
		if sameCall(g.tests[i].Calls[0], g.calls[0]) && sameCall(g.tests[i].Calls[1], g.calls[1]) {
			return
		}
	}
	// A setup or an Args map does not change once kept, so a test repeating
	// a kept one's shares its copy.
	var tc kernel.TestCase
	if len(same) > 0 {
		tc.Setup, tc.SetupID = g.tests[same[0]].Setup, g.tests[same[0]].SetupID
	} else {
		tc.Setup, tc.SetupID = setup.Clone(), string(g.fp)
	}
	g.seen[tc.SetupID] = append(same, len(g.tests))
	tc.ID = pr.OpA + "_" + pr.OpB + "_path" + strconv.Itoa(pi) + "_test" + strconv.Itoa(ti)
	tc.Calls = g.calls
	for slot := range tc.Calls {
		tc.Calls[slot].Args = g.keptArgs(slot)
	}
	g.tests = append(g.tests, tc)
}

// keptArgs returns the kept Args map of the slot equal to the slot's call
// in progress, keeping a copy of it if there is none: the pair's tests hold
// only a few distinct argument maps per slot, so a scan finds one.
func (g *Generator) keptArgs(slot int) map[string]int64 {
	args := g.calls[slot].Args
	for _, kept := range g.args[slot] {
		if maps.Equal(kept, args) {
			return kept
		}
	}
	kept := maps.Clone(args)
	g.args[slot] = append(g.args[slot], kept)
	return kept
}

// release drops every reference the Generator's storage holds into the
// pair it generated — the probes, the conjuncts and variables, the kept
// tests and their Args maps — keeping the storage for the next pair.
func (g *Generator) release() {
	g.probes.Clear()
	clear(g.cond[:cap(g.cond)])
	clear(g.vars[:cap(g.vars)])
	for slot := range g.argVars {
		clear(g.argVars[slot])
	}
	clear(g.tests)
	g.tests = g.tests[:0]
	clear(g.seen)
	for slot := range g.args {
		clear(g.args[slot])
		g.args[slot] = g.args[slot][:0]
	}
}

// condConjs appends to dst the path's commutativity condition PC ∧ Eq as
// the concatenation of its two conjunct lists: enumerating that is
// enumerating the conjunction (sym.Solver.EnumerateConjs), which is never
// built.
func condConjs(dst []*sym.Expr, p analyzer.Path) []*sym.Expr {
	return append(append(dst, sym.Conjuncts(p.PC)...), sym.Conjuncts(p.Eq)...)
}

// classVars selects, in dst's storage, among the variables of the
// conjunction of conjs, sorted by name, those whose equality pattern
// defines a test's isomorphism class: arguments and initial state, but not
// nondeterministic outputs.
func classVars(dst, conjs []*sym.Expr, kinds map[string]symx.VarKind) []*sym.Expr {
	return slices.DeleteFunc(sym.AppendVarsConjs(dst[:0], conjs), func(v *sym.Expr) bool {
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

// classSet is the class signatures a path has kept, in storage reused from
// path to path. A path keeps at most MaxTestsPerPath classes, so a scan
// finds one, and adding one allocates nothing once its slot has grown.
type classSet struct {
	sigs [][]byte
	n    int
}

func (c *classSet) reset() { c.n = 0 }

// add adds sig to the set unless it is there, reporting whether it was
// new; the set keeps a copy.
func (c *classSet) add(sig []byte) bool {
	for _, s := range c.sigs[:c.n] {
		if bytes.Equal(s, sig) {
			return false
		}
	}
	if c.n == len(c.sigs) {
		c.sigs = append(c.sigs, nil)
	}
	c.sigs[c.n] = append(c.sigs[c.n][:0], sig...)
	c.n++
	return true
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
