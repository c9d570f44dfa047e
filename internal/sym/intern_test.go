package sym

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"unsafe"
)

// TestInterningPointerEquality pins the hash-consing contract: equal
// constructions return the same node, across every constructor shape.
func TestInterningPointerEquality(t *testing.T) {
	x, y := Var("ix", IntSort), Var("iy", IntSort)
	fn := Uninterpreted("Filename")
	cases := [][2]*Expr{
		{Var("ix", IntSort), x},
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
	if Int(42) == Int(43) || Var("ix", IntSort) == Var("iy", IntSort) {
		t.Error("distinct expressions interned to one node")
	}
}

// TestInterningDistinctSorts pins that sort is part of node identity: one
// name at two sorts yields two nodes, and equal element ids of different
// uninterpreted sorts stay distinct.
func TestInterningDistinctSorts(t *testing.T) {
	if Var("sortedvar", IntSort) == Var("sortedvar", BoolSort) {
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
	a, b, c := Var("ova", IntSort), Var("ovb", IntSort), Var("ovc", IntSort)
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
	x, y := Var("sx", IntSort), Var("sy", IntSort)
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
// from, now that each shard counts its own traffic under its lock: every
// constructor call that reaches the table counts once in InternStats, a
// hit when it finds its node and a miss when it adds it, however many
// goroutines call.
func TestInternStatsCountsEveryCall(t *testing.T) {
	const workers, calls = 4, 500
	run := fuzzFresh.Add(1)
	hits0, misses0 := InternStats()
	made := make([][]*Expr, workers)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range calls {
				v := Var(fmt.Sprintf("istat%d.%d.%d", run, w, i), BoolSort)
				made[w] = append(made[w], v)
				if Var(v.Name, BoolSort) != v {
					t.Errorf("%s: asked again, another node", v.Name)
				}
			}
		}()
	}
	wg.Wait()
	hits, misses := InternStats()
	if hits-hits0 != workers*calls || misses-misses0 != workers*calls {
		t.Errorf("%d new variables, each asked for twice: %d hits and %d misses, want %d of each",
			workers*calls, hits-hits0, misses-misses0, workers*calls)
	}
	runtime.KeepAlive(made)
}

// TestInternShardFillsACacheLine pins the padding that keeps one shard's
// mutex and counters off its neighbours' cache lines.
func TestInternShardFillsACacheLine(t *testing.T) {
	if size := unsafe.Sizeof(internShard{}); size%cacheLine != 0 {
		t.Errorf("an intern shard is %d bytes, not a whole number of %d-byte lines", size, cacheLine)
	}
}

// TestInterningSurvivesGC exercises the weak table across collections:
// transient expressions may be reclaimed and rebuilt, but construction
// stays consistent (pointer equality within a live generation, no stale
// matches, no panics from cleared entries).
func TestInterningSurvivesGC(t *testing.T) {
	for round := 0; round < 5; round++ {
		var keep *Expr
		for i := 0; i < 2000; i++ {
			x := Var("gcx", IntSort)
			e := And(Lt(x, Int(int64(i))), Ne(x, Int(int64(i)+1)))
			if i == 1999 {
				keep = e
			}
			_ = e
		}
		runtime.GC()
		x := Var("gcx", IntSort)
		again := And(Lt(x, Int(1999)), Ne(x, Int(2000)))
		if keep != again {
			t.Fatalf("round %d: live expression lost its identity after GC", round)
		}
	}
}
