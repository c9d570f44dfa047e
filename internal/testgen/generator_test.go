package testgen

import (
	"testing"

	"repro/internal/analyzer"
	"repro/internal/kernel"
	"repro/internal/kvspec"
	"repro/internal/model"
	"repro/internal/queuespec"
	"repro/internal/spec"
	"repro/internal/sym"
	"repro/internal/vmspec"
)

// leafOf plans path pi of pr on g as generate does, and calls f with the
// path's class variables and its first model, on a solver of its own.
func leafOf(g *Generator, pr analyzer.PairResult, pi int, f func(ops [2]*spec.Op, vars []*sym.Expr, m sym.Model)) {
	solver := &sym.Solver{}
	ops := g.resolve(pr, solver)
	path := pr.Paths[pi]
	g.cond = condConjs(g.cond[:0], path)
	g.vars = classVars(g.vars, g.cond, path.VarKinds)
	g.miner.Plan(path.StateA, path.StateB)
	solver.EnumerateConjs(g.cond, func(m sym.Model) bool {
		f(ops, g.vars, m)
		return false
	})
}

// TestDuplicateModelCostsNoAllocation pins the leaf's second commonest
// outcome to no allocation: a model of a class new to its path whose
// mined setup and calls are those of a test already kept. The class is
// recorded in reused slots, the calls filled in reused maps, the setup
// mined into the miner's storage and fingerprinted into a reused buffer,
// and the kept tests looked up by that buffer. It covers the first model
// of every commutative path of pairs whose setups fill every field kind.
func TestDuplicateModelCostsNoAllocation(t *testing.T) {
	pairs := []struct {
		sp   spec.Spec
		a, b string
	}{
		{model.Spec, "rename", "rename"},
		{model.Spec, "pipe", "read"},
		{model.Spec, "write", "pwrite"},
		{model.Spec, "mmap", "memwrite"},
		{model.Spec, "open", "open"},
		{vmspec.Spec, "mmap", "memwrite"},
		{kvspec.Spec, "put", "scan"},
		{queuespec.Spec, "send", "recv"},
		{queuespec.Spec, "send_any", "recv_any"},
	}
	for _, p := range pairs {
		pr := analyzePair(t, p.sp, p.a, p.b)
		g := NewGenerator(p.sp)
		paths := 0
		for pi, path := range pr.Paths {
			if !path.Commutes {
				continue
			}
			paths++
			leafOf(g, pr, pi, func(ops [2]*spec.Op, vars []*sym.Expr, m sym.Model) {
				g.classes.reset()
				g.tests = g.tests[:0]
				clear(g.seen)
				g.classes.add(g.sig.classSignature(m, vars))
				g.materialize(pr, ops, m, pi, 0)
				n := testing.AllocsPerRun(50, func() {
					g.classes.reset()
					if !g.classes.add(g.sig.classSignature(m, vars)) {
						t.Fatal("a class is new to a reset path")
					}
					g.materialize(pr, ops, m, pi, 1)
				})
				if len(g.tests) != 1 {
					t.Fatalf("%s %s/%s path %d: a duplicate of the kept test was kept (%d tests)", p.sp.Name(), p.a, p.b, pi, len(g.tests))
				}
				if n != 0 {
					t.Errorf("%s %s/%s path %d: a model duplicating a kept test costs %.0f allocations, want 0 (setup %s)",
						p.sp.Name(), p.a, p.b, pi, n, g.tests[0].SetupID)
				}
			})
		}
		g.release()
		if paths == 0 {
			t.Errorf("%s %s/%s: no commutative path", p.sp.Name(), p.a, p.b)
		}
	}
}

// copyOutAllocs bounds what keeping tc costs: its ID, its SetupID, its
// entry in seen, both calls' Args maps (a map and its table each) and one
// slice or map per non-nil field of its setup.
func copyOutAllocs(tc kernel.TestCase) int {
	n := 3 + 2*2
	s := tc.Setup
	for _, nonNil := range []bool{s.Files != nil, s.Inodes != nil, s.FDs != nil, s.Pipes != nil, s.VMAs != nil, s.Queues != nil, s.KVs != nil} {
		if nonNil {
			n++
		}
	}
	for _, in := range s.Inodes {
		if in.Pages != nil {
			n++
		}
	}
	for _, p := range s.Pipes {
		if p.Items != nil {
			n++
		}
	}
	for _, q := range s.Queues {
		if q.Items != nil {
			n++
		}
	}
	return n
}

// TestWarmPassAllocatesPerKeptTest pins a warm Generator's pass over one
// pair, on a warm solver, to allocating only for what it keeps: no more
// than copyOutAllocs of every kept test, one exact-length result, and a
// name per argument variable. The pairs visit and materialise many more
// models than they keep, so a single allocation per dropped model would
// break the bound.
func TestWarmPassAllocatesPerKeptTest(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates in the solver's search")
	}
	for _, p := range [][2]string{{"rename", "rename"}, {"open", "open"}, {"pipe", "read"}, {"write", "pwrite"}} {
		pr := analyzePair(t, model.Spec, p[0], p[1])
		g := NewGenerator(model.Spec)
		opt := Options{Solver: &sym.Solver{}}
		tests, _, n := g.generate(pr, opt)
		bound := 1
		for _, op := range [2]string{pr.OpA, pr.OpB} {
			o, _ := spec.OpByName(model.Spec, op)
			bound += len(o.Args)
		}
		for _, tc := range tests {
			bound += copyOutAllocs(tc)
		}
		dropped := n.materialized - len(tests)
		got := testing.AllocsPerRun(5, func() { g.generate(pr, opt) })
		t.Logf("%s/%s: %.0f allocations for %d kept tests (bound %d); %d models visited, %d materialised",
			p[0], p[1], got, len(tests), bound, n.visited, n.materialized)
		if int(got) > bound {
			t.Errorf("%s/%s: a warm pass allocates %.0f times, more than the %d its %d kept tests account for",
				p[0], p[1], got, bound, len(tests))
		}
		if slack := bound - int(got); slack >= dropped {
			t.Errorf("%s/%s: the bound leaves %d allocations of slack, not fewer than the %d dropped models; the pin shows nothing", p[0], p[1], slack, dropped)
		}
	}
}

// analyzePair analyses the pair (a, b) of sp.
func analyzePair(t *testing.T, sp spec.Spec, a, b string) analyzer.PairResult {
	t.Helper()
	opA, errA := spec.OpByName(sp, a)
	opB, errB := spec.OpByName(sp, b)
	if errA != nil || errB != nil {
		t.Fatal(errA, errB)
	}
	pr, err := analyzer.AnalyzePairCtx(t.Context(), sp, opA, opB, analyzer.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return pr
}
