package symx

import (
	"context"
	"testing"

	"repro/internal/sym"
)

func TestRunExploresBothBranches(t *testing.T) {
	paths := explore(func(c *Context) any {
		x := c.Var("x", sym.IntSort, KindArg)
		if c.Branch(sym.Lt(x, sym.Int(0))) {
			return "neg"
		}
		return "nonneg"
	}, Options{})
	if len(paths) != 2 {
		t.Fatalf("want 2 paths, got %d", len(paths))
	}
	got := map[string]bool{}
	for _, p := range paths {
		got[p.Result.(string)] = true
	}
	if !got["neg"] || !got["nonneg"] {
		t.Errorf("paths = %v", got)
	}
}

func TestRunPathConditionsDisjoint(t *testing.T) {
	paths := explore(func(c *Context) any {
		x := c.Var("x", sym.IntSort, KindArg)
		a := c.Branch(sym.Lt(x, sym.Int(0)))
		b := c.Branch(sym.Lt(x, sym.Int(10)))
		return [2]bool{a, b}
	}, Options{})
	// x<0 implies x<10, so the (true, false) combination is infeasible.
	if len(paths) != 3 {
		t.Fatalf("want 3 feasible paths, got %d", len(paths))
	}
	var s sym.Solver
	for i, p := range paths {
		for j, q := range paths {
			if i < j && s.Sat(sym.And(p.PC, q.PC)) {
				t.Errorf("paths %d and %d overlap: %v and %v", i, j, p.PC, q.PC)
			}
		}
	}
}

func TestAssumeAbandonsInfeasible(t *testing.T) {
	paths := explore(func(c *Context) any {
		x := c.Var("x", sym.IntSort, KindArg)
		c.Assume(sym.Lt(x, sym.Int(0)))
		if c.Branch(sym.Gt(x, sym.Int(5))) {
			t.Error("infeasible branch direction taken")
		}
		return nil
	}, Options{})
	if len(paths) != 1 {
		t.Fatalf("want 1 path, got %d", len(paths))
	}
}

func TestNestedBranchesEnumerate(t *testing.T) {
	paths := explore(func(c *Context) any {
		p := c.Var("p", sym.BoolSort, KindArg)
		q := c.Var("q", sym.BoolSort, KindArg)
		n := 0
		if c.Branch(p) {
			n += 2
		}
		if c.Branch(q) {
			n++
		}
		return n
	}, Options{})
	if len(paths) != 4 {
		t.Fatalf("want 4 paths, got %d", len(paths))
	}
	seen := map[int]bool{}
	for _, p := range paths {
		seen[p.Result.(int)] = true
	}
	for want := 0; want < 4; want++ {
		if !seen[want] {
			t.Errorf("missing outcome %d", want)
		}
	}
}

// A cap that cuts exploration short must say so: the paths it returns are
// an under-approximation, not the model's behaviours. A cap the
// exploration never reaches (or reaches exactly) truncates nothing.
func TestMaxPathsCap(t *testing.T) {
	model := func(n int) func(c *Context) any {
		return func(c *Context) any {
			for i := 0; i < n; i++ {
				c.Branch(c.Var(string(rune('a'+i)), sym.BoolSort, KindArg))
			}
			return nil
		}
	}
	paths, budgeted, err := RunCtx(context.Background(), model(10), Options{MaxPaths: 7})
	if err != nil || len(paths) != 7 {
		t.Fatalf("MaxPaths not honored: got %d paths, err %v", len(paths), err)
	}
	if !budgeted || !paths[0].Budgeted {
		t.Errorf("capped exploration with work left reports budgeted=%v, path flag %v", budgeted, paths[0].Budgeted)
	}
	paths, budgeted, err = RunCtx(context.Background(), model(3), Options{MaxPaths: 8})
	if err != nil || len(paths) != 8 || budgeted {
		t.Errorf("exploration that fits its cap exactly: %d paths, budgeted %v, err %v", len(paths), budgeted, err)
	}
}

func TestVarMemoization(t *testing.T) {
	explore(func(c *Context) any {
		v1 := c.Var("x", sym.IntSort, KindArg)
		v2 := c.Var("x", sym.IntSort, KindArg)
		if v1 != v2 {
			t.Error("repeated Var not memoized")
		}
		return nil
	}, Options{})
}

func TestVarSortConflictPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on sort conflict")
		}
	}()
	explore(func(c *Context) any {
		c.Var("x", sym.IntSort, KindArg)
		c.Var("x", sym.BoolSort, KindArg)
		return nil
	}, Options{})
}

func TestVarKindsReported(t *testing.T) {
	paths := explore(func(c *Context) any {
		c.Var("arg", sym.IntSort, KindArg)
		c.Var("state", sym.IntSort, KindState)
		c.Var("nd", sym.IntSort, KindNondet)
		return nil
	}, Options{})
	k := paths[0].VarKinds
	if k["arg"] != KindArg || k["state"] != KindState || k["nd"] != KindNondet {
		t.Errorf("kinds = %v", k)
	}
}

func TestBranchOnConstantsDoesNotFork(t *testing.T) {
	paths := explore(func(c *Context) any {
		if !c.Branch(sym.True) {
			t.Error("Branch(true) returned false")
		}
		if c.Branch(sym.False) {
			t.Error("Branch(false) returned true")
		}
		return nil
	}, Options{})
	if len(paths) != 1 {
		t.Fatalf("constant branches must not fork: %d paths", len(paths))
	}
}

func TestReplayDeterminismSharedNames(t *testing.T) {
	// Two identically-named dictionaries must materialize identical
	// initial-content variables, making untouched state trivially equal.
	paths := explore(func(c *Context) any {
		mk := func(c *Context, tag string) *Struct {
			return NewStruct("v", c.Var(tag+".v", sym.IntSort, KindState))
		}
		d1 := NewDict("fs", mk)
		d2 := NewDict("fs", mk)
		k := K(c.Var("a", sym.Uninterpreted("Name"), KindArg))
		if d1.Contains(c, k) != d2.Contains(c, k) {
			t.Error("same initial content must agree on membership")
		}
		return sym.And(DictsEquivalent(nil, c, d1, d2)...)
	}, Options{})
	var s sym.Solver
	for _, p := range paths {
		eq := p.Result.(*sym.Expr)
		if !valid(&s, sym.Implies(p.PC, eq)) {
			t.Errorf("untouched identical dicts not equivalent under %v: %v", p.PC, eq)
		}
	}
}
