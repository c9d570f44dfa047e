package symx

import (
	"testing"

	"repro/internal/sym"
)

// Regression test: two states built from the same unconstrained initial
// content must observe identical values even when they first probe a
// location under different (but semantically equal) keys. Before the
// initial-probe registry, state A probing via key x and state B probing via
// key y minted distinct variables, so x == y paths spuriously "diverged".
func TestInitialProbeSharingAcrossKeys(t *testing.T) {
	nameSort := sym.Uninterpreted("Name")
	mk := func(c *Context, tag string) *Struct {
		return NewStruct("v", c.Var(tag+".v", sym.IntSort, KindState))
	}
	var s sym.Solver
	paths := explore(func(c *Context) any {
		x := c.Var("x", nameSort, KindArg)
		y := c.Var("y", nameSort, KindArg)
		c.Assume(sym.Eq(x, y))

		d1 := NewDict("fs", mk)
		e1 := d1.lookup(c, K(x))

		d2 := NewDict("fs", mk)
		e2 := d2.lookup(c, K(y))

		if e1.Present != e2.Present {
			t.Error("aliased probes disagree on membership")
		}
		if !e1.Present {
			return sym.True
		}
		return sym.Eq(e1.Val.Get("v"), e2.Val.Get("v"))
	}, Options{})
	for _, p := range paths {
		eq := p.Result.(*sym.Expr)
		if !valid(&s, sym.Implies(p.PC, eq)) {
			t.Errorf("aliased initial values differ under %v", p.PC)
		}
	}
}

// Same property for total-function dictionaries (GetFunc).
func TestGetFuncSharingAcrossKeys(t *testing.T) {
	mk := func(c *Context, tag string) *Struct {
		return NewStruct("n", c.Var(tag+".n", sym.IntSort, KindState))
	}
	var s sym.Solver
	paths := explore(func(c *Context) any {
		x := c.Var("x", sym.IntSort, KindArg)
		y := c.Var("y", sym.IntSort, KindArg)
		c.Assume(sym.Eq(x, y))
		d1 := NewDict("ino", mk)
		d2 := NewDict("ino", mk)
		v1 := d1.GetFunc(c, K(x)).Get("n")
		v2 := d2.GetFunc(c, K(y)).Get("n")
		return sym.Eq(v1, v2)
	}, Options{})
	for _, p := range paths {
		if !valid(&s, sym.Implies(p.PC, p.Result.(*sym.Expr))) {
			t.Errorf("aliased GetFunc values differ under %v", p.PC)
		}
	}
}

// Distinct keys must stay independent: no spurious sharing.
func TestInitialProbesDistinctKeysIndependent(t *testing.T) {
	nameSort := sym.Uninterpreted("Name")
	mk := func(c *Context, tag string) *Struct {
		return NewStruct("v", c.Var(tag+".v", sym.IntSort, KindState))
	}
	var s sym.Solver
	paths := explore(func(c *Context) any {
		x := c.Var("x", nameSort, KindArg)
		y := c.Var("y", nameSort, KindArg)
		c.Assume(sym.Ne(x, y))
		d := NewDict("fs", mk)
		ex := d.lookup(c, K(x))
		ey := d.lookup(c, K(y))
		if !ex.Present || !ey.Present {
			return sym.True // nothing to compare
		}
		return sym.Ne(ex.Val.Get("v"), ey.Val.Get("v"))
	}, Options{})
	someIndependent := false
	for _, p := range paths {
		ne := p.Result.(*sym.Expr)
		if s.Sat(sym.And(p.PC, ne)) {
			someIndependent = true
		}
	}
	if !someIndependent {
		t.Error("values at distinct keys should be independently choosable")
	}
}

// The registry must also feed the equivalence-formula defaults: a dict that
// wrote nothing compares equal to one whose write restored the initial
// value probed under a different key name.
func TestEquivalenceUsesRegistryDefaults(t *testing.T) {
	nameSort := sym.Uninterpreted("Name")
	mk := func(c *Context, tag string) *Struct {
		return NewStruct("v", c.Var(tag+".v", sym.IntSort, KindState))
	}
	var s sym.Solver
	paths := explore(func(c *Context) any {
		x := c.Var("x", nameSort, KindArg)
		y := c.Var("y", nameSort, KindArg)
		c.Assume(sym.Eq(x, y))

		d1 := NewDict("fs", mk)
		e := d1.lookup(c, K(x)) // probe via x
		if !e.Present {
			return sym.True
		}
		// d1 rewrites the same value it read (a no-op update).
		d1.Set(c, K(x), e.Val)

		// d2 never touches the location.
		d2 := NewDict("fs", mk)
		_ = d2.Contains(c, K(y)) // probe via y (reuses the registry entry)

		return DictsEquivalent(c, d1, d2)
	}, Options{})
	for _, p := range paths {
		eq := p.Result.(*sym.Expr)
		if !valid(&s, sym.Implies(p.PC, eq)) {
			t.Errorf("no-op rewrite should leave states equivalent under %v", p.PC)
		}
	}
}
