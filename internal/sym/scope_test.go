package sym

import (
	"strings"
	"sync"
	"testing"
)

// tscope is the scope this package's tests build their variables in when
// they need no scope of their own. Nothing resets it, and only one test at
// a time uses it.
var tscope = newScope()

// mustPanic runs f and reports whether it panicked with a message holding
// want.
func mustPanic(t *testing.T, want string, f func()) {
	t.Helper()
	defer func() {
		t.Helper()
		r := recover()
		if s, _ := r.(string); !strings.Contains(s, want) {
			t.Errorf("panic %v, want one naming %q", r, want)
		}
	}()
	f()
}

// TestTwoScopesInOneExpressionPanic: a constructor over nodes of two scopes
// panics, whichever argument brings the second scope and however deep the
// nodes are; constants, which live in no scope, mix with either.
func TestTwoScopesInOneExpressionPanic(t *testing.T) {
	a, b := newScope(), newScope()
	x, y := a.Var("two.x", IntSort), b.Var("two.y", IntSort)
	p, q := a.Var("two.p", BoolSort), b.Var("two.q", BoolSort)
	deep := Lt(Add(x, Int(1)), Int(5))
	if Lt(x, Int(3)).scope != a || Add(Int(2), y).scope != b {
		t.Fatal("a node over one scope's variables and constants is not that scope's")
	}
	for _, f := range []func(){
		func() { Lt(x, y) },
		func() { Add(y, x) },
		func() { Eq(p, q) },
		func() { And(p, deep, q) },
		func() { or(deep, q) },
		func() { Ite(p, x, y) },
		func() { And(deep, Lt(y, Int(2))) },
	} {
		mustPanic(t, "two scopes", f)
	}
}

// TestNodeAfterResetPanics: a node made before its scope's reset panics
// when a constructor meets it after, alone or beside nodes of the new
// generation; the same name made again after the reset is another node
// with the same variable id, and builds as before.
func TestNodeAfterResetPanics(t *testing.T) {
	var s Solver
	sc := s.Scope()
	x := sc.Var("reset.x", IntSort)
	old := Lt(x, Int(3))
	s.Forget()
	mustPanic(t, "reset", func() { Not(old) })
	mustPanic(t, "reset", func() { Add(x, Int(1)) })
	x2 := sc.Var("reset.x", IntSort)
	if x2 == x || x2.VarID != x.VarID {
		t.Fatalf("after the reset: node %p (id %d), before %p (id %d)", x2, x2.VarID, x, x.VarID)
	}
	mustPanic(t, "reset", func() { And(Lt(x2, Int(3)), old) })
	if n := Lt(x2, Int(3)); n == old || n.id == old.id || n != Lt(x2, Int(3)) {
		t.Fatalf("rebuilt after the reset: %p id %#x, before %p id %#x", n, n.id, old, old.id)
	}
}

// newScope returns a scope of its own, the way a fresh Solver makes one.
func newScope() *Scope { return new(Solver).Scope() }

// TestBaseTableSharedByGoroutines: goroutines that meet the same new
// constants at once, each building over a scope of its own, get one node
// per constant, and the base table grows by exactly the constants met.
func TestBaseTableSharedByGoroutines(t *testing.T) {
	const workers, consts = 4, 200
	first := int64(1<<40) + fuzzFresh.Add(1)*consts
	size0 := InternSize()
	got := make([][]*Expr, workers)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			x := newScope().Var("shared.x", IntSort)
			for k := range int64(consts) {
				c := Int(first + k)
				if Lt(x, c).Args[1] != c {
					t.Errorf("worker %d: constant %d is not its node's argument", w, first+k)
				}
				got[w] = append(got[w], c)
			}
		}()
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		for k := range consts {
			if got[w][k] != got[0][k] {
				t.Fatalf("constant %d: worker %d got another node than worker 0", first+int64(k), w)
			}
		}
	}
	if grew := InternSize() - size0; grew != consts {
		t.Errorf("%d new constants met by %d goroutines: the base table grew by %d", consts, workers, grew)
	}
}
