package symx

import (
	"testing"

	"repro/internal/sym"
)

var nameSort = sym.Uninterpreted("Name")

func mkVal(c *Context, tag string) *Struct {
	return NewStruct("inum", c.Var(tag+".inum", sym.IntSort, KindState))
}

func TestStructWithReplacesField(t *testing.T) {
	s := NewStruct("a", sym.Int(1), "b", sym.Int(2))
	s2 := s.With("a", sym.Int(9))
	if s2.Get("a").Int != 9 || s2.Get("b").Int != 2 {
		t.Errorf("With: got a=%v b=%v", s2.Get("a"), s2.Get("b"))
	}
	if s.Get("a").Int != 1 {
		t.Error("With must not mutate the receiver")
	}
}

func TestDictSetGetDel(t *testing.T) {
	paths := explore(func(c *Context) any {
		d := NewDict("fs", mkVal)
		k := K(c.Var("a", nameSort, KindArg))
		d.Set(c, k, NewStruct("inum", sym.Int(7)))
		if !d.Contains(c, k) {
			t.Error("Set then Contains must be true")
		}
		v := d.Get(c, k)
		if v.Get("inum").Int != 7 {
			t.Errorf("Get after Set: %v", v.Get("inum"))
		}
		d.Del(c, k)
		if d.Contains(c, k) {
			t.Error("Del then Contains must be false")
		}
		return nil
	}, Options{})
	if len(paths) != 1 {
		t.Fatalf("no forks expected once the key is in the overlay, got %d paths", len(paths))
	}
}

func TestDictInitialProbeForks(t *testing.T) {
	paths := explore(func(c *Context) any {
		d := NewDict("fs", mkVal)
		k := K(c.Var("a", nameSort, KindArg))
		return d.Contains(c, k)
	}, Options{})
	if len(paths) != 2 {
		t.Fatalf("first probe must fork on membership, got %d paths", len(paths))
	}
}

func TestDictAliasedKeysShareEntry(t *testing.T) {
	// Probing two possibly-equal keys forks; in the equal branch the
	// second probe must observe the first key's value.
	paths := explore(func(c *Context) any {
		d := NewDict("fs", mkVal)
		a := c.Var("a", nameSort, KindArg)
		b := c.Var("b", nameSort, KindArg)
		d.Set(c, K(a), NewStruct("inum", sym.Int(3)))
		equal := c.Branch(sym.Eq(a, b))
		if equal {
			got := d.Get(c, K(b))
			if got.Get("inum").Int != 3 {
				t.Errorf("aliased key saw %v", got.Get("inum"))
			}
		}
		return equal
	}, Options{})
	var sawEqual bool
	for _, p := range paths {
		if p.Result.(bool) {
			sawEqual = true
		}
	}
	if !sawEqual {
		t.Error("no path explored the aliased case")
	}
}

func TestDictsEquivalentDetectsDifference(t *testing.T) {
	paths := explore(func(c *Context) any {
		d1 := NewDict("fs", mkVal)
		d2 := NewDict("fs", mkVal)
		k := K(c.Var("a", nameSort, KindArg))
		d1.Set(c, k, NewStruct("inum", sym.Int(1)))
		d2.Set(c, k, NewStruct("inum", sym.Int(2)))
		return sym.And(DictsEquivalent(nil, c, d1, d2)...)
	}, Options{})
	var s sym.Solver
	for _, p := range paths {
		if s.Sat(sym.And(p.PC, p.Result.(*sym.Expr))) {
			t.Errorf("dicts with different values reported equivalent under %v", p.PC)
		}
	}
}

func TestDictsEquivalentPresenceMismatch(t *testing.T) {
	paths := explore(func(c *Context) any {
		d1 := NewDict("fs", mkVal)
		d2 := NewDict("fs", mkVal)
		k := K(c.Var("a", nameSort, KindArg))
		d1.Set(c, k, NewStruct("inum", sym.Int(1)))
		d2.Del(c, k)
		return sym.And(DictsEquivalent(nil, c, d1, d2)...)
	}, Options{})
	var s sym.Solver
	for _, p := range paths {
		if s.Sat(sym.And(p.PC, p.Result.(*sym.Expr))) {
			t.Error("present-vs-deleted dicts reported equivalent")
		}
	}
}

func TestDictsEquivalentSameWrites(t *testing.T) {
	var s sym.Solver
	paths := explore(func(c *Context) any {
		d1 := NewDict("fs", mkVal)
		d2 := NewDict("fs", mkVal)
		a := c.Var("a", nameSort, KindArg)
		b := c.Var("b", nameSort, KindArg)
		// Write the same values in different orders.
		d1.Set(c, K(a), NewStruct("inum", sym.Int(1)))
		d1.Set(c, K(b), NewStruct("inum", sym.Int(2)))
		d2.Set(c, K(b), NewStruct("inum", sym.Int(2)))
		d2.Set(c, K(a), NewStruct("inum", sym.Int(1)))
		return sym.And(DictsEquivalent(nil, c, d1, d2)...)
	}, Options{Solver: &s})
	a, b := s.Scope().Var("a", nameSort), s.Scope().Var("b", nameSort)
	for _, p := range paths {
		eq := p.Result.(*sym.Expr)
		// Where a != b the orders are fully equivalent. Where a == b the
		// last writer differs (1 vs 2 at the shared key), so equivalence
		// must fail there — exactly the paper's order-dependence signal.
		aNeB := sym.Ne(a, b)
		if !valid(&s, sym.Implies(sym.And(p.PC, aNeB), eq)) {
			t.Errorf("distinct-key writes should commute under %v", p.PC)
		}
		if s.Sat(sym.And(p.PC, sym.Eq(a, b), eq)) {
			t.Errorf("same-key conflicting writes should not commute under %v", p.PC)
		}
	}
}

func TestTupleKeys(t *testing.T) {
	paths := explore(func(c *Context) any {
		d := NewDict("pages", mkVal)
		ino := c.Var("ino", sym.IntSort, KindArg)
		d.Set(c, K(ino, sym.Int(0)), NewStruct("inum", sym.Int(10)))
		d.Set(c, K(ino, sym.Int(1)), NewStruct("inum", sym.Int(11)))
		v0 := d.Get(c, K(ino, sym.Int(0)))
		v1 := d.Get(c, K(ino, sym.Int(1)))
		if v0.Get("inum").Int != 10 || v1.Get("inum").Int != 11 {
			t.Errorf("tuple keys collided: %v %v", v0.Get("inum"), v1.Get("inum"))
		}
		return nil
	}, Options{})
	if len(paths) != 1 {
		t.Fatalf("distinct constant tuple keys must not fork, got %d paths", len(paths))
	}
}
