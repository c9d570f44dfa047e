package sym

import (
	"fmt"
	"sync"
	"testing"
)

// TestInterningPointerEquality pins the hash-consing contract: equal
// constructions return the same node, across every constructor shape.
func TestInterningPointerEquality(t *testing.T) {
	x, y := tscope.Var("ix", IntSort), tscope.Var("iy", IntSort)
	fn := Uninterpreted("Filename")
	cases := [][2]*Expr{
		{tscope.Var("ix", IntSort), x},
		{Int(42), Int(42)},
		{Const(fn, 3), Const(fn, 3)},
		{Bool(true), True},
		{Not(Eq(x, y)), Not(Eq(x, y))},
		{Eq(x, y), Eq(y, x)}, // canonical argument order
		{And(Lt(x, y), Le(y, Int(2))), And(Lt(x, y), Le(y, Int(2)))},
		{or(Eq(x, y), Lt(x, y)), or(Eq(x, y), Lt(x, y))},
		{Add(x, y), Add(x, y)},
		{Ite(Lt(x, y), x, y), Ite(Lt(x, y), x, y)},
	}
	for i, c := range cases {
		if c[0] != c[1] {
			t.Errorf("case %d: structurally equal expressions are distinct pointers: %v vs %v", i, c[0], c[1])
		}
	}
	if Int(42) == Int(43) || tscope.Var("ix", IntSort) == tscope.Var("iy", IntSort) {
		t.Error("distinct expressions interned to one node")
	}
}

// TestInterningDistinctSorts pins that sort is part of node identity: one
// name at two sorts yields two nodes, and equal element ids of different
// uninterpreted sorts stay distinct.
func TestInterningDistinctSorts(t *testing.T) {
	if tscope.Var("sortedvar", IntSort) == tscope.Var("sortedvar", BoolSort) {
		t.Error("same name at different sorts interned to one node")
	}
	if Const(Uninterpreted("A"), 1) == Const(Uninterpreted("B"), 1) {
		t.Error("element 1 of different uninterpreted sorts interned to one node")
	}
}

// TestCachedVarsOrder pins that the cached variable list preserves
// first-occurrence DFS order — the solver's chronological assignment
// heuristic depends on it.
func TestCachedVarsOrder(t *testing.T) {
	a, b, c := tscope.Var("ova", IntSort), tscope.Var("ovb", IntSort), tscope.Var("ovc", IntSort)
	e := And(Lt(b, c), Eq(a, b), Lt(a, Int(2)))
	got := e.vars
	want := []*Expr{b, c, a}
	if len(got) != len(want) {
		t.Fatalf("cached vars hold %d vars, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("vars[%d] = %s, want %s", i, got[i].Name, want[i].Name)
		}
	}
	// Vars sorts the same set by name.
	vs := Vars(e)
	if len(vs) != 3 || vs[0] != a || vs[1] != b || vs[2] != c {
		t.Errorf("Vars = %v", vs)
	}
}

// TestInternedStringCached pins that rendering is stable and cached
// renders match fresh ones.
func TestInternedStringCached(t *testing.T) {
	x, y := tscope.Var("sx", IntSort), tscope.Var("sy", IntSort)
	e := And(Lt(x, y), Eq(Add(x, Int(1)), y))
	first := e.String()
	if second := e.String(); second != first {
		t.Errorf("cached render differs: %q vs %q", first, second)
	}
	ref := &Expr{Op: OpAnd, Sort: BoolSort, Args: e.Args}
	if ref.String() != first {
		t.Errorf("cached render %q differs from uncached reference %q", first, ref.String())
	}
}

// TestInternStatsCountsEveryCall pins what sym.intern_hit_share is read
// from, now that each scope counts its own traffic in plain fields and folds
// it into the process-wide totals: every constructor call that reaches a
// scope counts once in InternStats after the scope folds, a hit when it
// finds its node and a miss when it adds it, however many goroutines call,
// each over a scope of its own.
func TestInternStatsCountsEveryCall(t *testing.T) {
	const workers, calls = 4, 500
	hits0, misses0 := InternStats()
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sc := newScope()
			for i := range calls {
				v := sc.Var(fmt.Sprintf("istat.%d", i), BoolSort)
				if sc.Var(v.Name, BoolSort) != v {
					t.Errorf("%s: asked again, another node", v.Name)
				}
			}
			sc.Fold()
		}()
	}
	wg.Wait()
	hits, misses := InternStats()
	if hits-hits0 != workers*calls || misses-misses0 != workers*calls {
		t.Errorf("%d new variables, each asked for twice: %d hits and %d misses, want %d of each",
			workers*calls, hits-hits0, misses-misses0, workers*calls)
	}
}
