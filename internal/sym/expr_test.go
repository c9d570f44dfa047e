package sym

import (
	"testing"
	"testing/quick"
)

// deepEq is structural equality by tree walk. It shares nothing with the
// interner, so it can compare constructor results with hand-built literals.
func deepEq(a, b *Expr) bool {
	if a.Op != b.Op || a.Sort != b.Sort || a.Int != b.Int || a.Bool != b.Bool ||
		a.Name != b.Name || len(a.Args) != len(b.Args) {
		return false
	}
	for i := range a.Args {
		if !deepEq(a.Args[i], b.Args[i]) {
			return false
		}
	}
	return true
}

func TestConstFolding(t *testing.T) {
	cases := []struct {
		got  *Expr
		want *Expr
	}{
		{Add(Int(2), Int(3)), Int(5)},
		{Sub(Int(2), Int(3)), Int(-1)},
		{Mul(Int(2), Int(3)), Int(6)},
		{Mul(Int(2), Int(0)), Int(0)},
		{Lt(Int(1), Int(2)), True},
		{Le(Int(2), Int(2)), True},
		{Lt(Int(2), Int(2)), False},
		{Eq(Int(2), Int(2)), True},
		{Eq(Int(2), Int(3)), False},
		{Not(True), False},
		{Not(Not(Var("p", BoolSort))), Var("p", BoolSort)},
		{And(True, True), True},
		{And(True, False), False},
		{Or(False, False), False},
		{Or(True, False), True},
		{Ite(True, Int(1), Int(2)), Int(1)},
		{Ite(False, Int(1), Int(2)), Int(2)},
	}
	for i, c := range cases {
		if !deepEq(c.got, c.want) {
			t.Errorf("case %d: got %v, want %v", i, c.got, c.want)
		}
	}
}

func TestSimplifyIdentities(t *testing.T) {
	x := Var("x", IntSort)
	if got := Add(x, Int(0)); got != x {
		t.Errorf("x+0 = %v", got)
	}
	if got := Sub(x, x); !deepEq(got, Int(0)) {
		t.Errorf("x-x = %v", got)
	}
	if got := Mul(x, Int(1)); got != x {
		t.Errorf("x*1 = %v", got)
	}
	if got := Eq(x, x); !got.IsTrue() {
		t.Errorf("x==x = %v", got)
	}
	if got := Le(x, x); !got.IsTrue() {
		t.Errorf("x<=x = %v", got)
	}
	if got := Lt(x, x); !got.IsFalse() {
		t.Errorf("x<x = %v", got)
	}
	p := Var("p", BoolSort)
	if got := And(p, p); got != p {
		t.Errorf("p&&p = %v", got)
	}
	if got := Or(p, p); got != p {
		t.Errorf("p||p = %v", got)
	}
	if got := Ite(p, x, x); got != x {
		t.Errorf("ite(p,x,x) = %v", got)
	}
}

func TestAndOrFlatten(t *testing.T) {
	p, q, r := Var("p", BoolSort), Var("q", BoolSort), Var("r", BoolSort)
	e := And(And(p, q), r)
	if e.Op != OpAnd || len(e.Args) != 3 {
		t.Errorf("nested And not flattened: %v", e)
	}
	e = Or(Or(p, q), r)
	if e.Op != OpOr || len(e.Args) != 3 {
		t.Errorf("nested Or not flattened: %v", e)
	}
}

func TestEqCanonicalOrder(t *testing.T) {
	a := Var("a", IntSort)
	b := Var("b", IntSort)
	if !deepEq(Eq(a, b), Eq(b, a)) {
		t.Errorf("Eq not canonicalized: %v vs %v", Eq(a, b), Eq(b, a))
	}
}

func TestBoolIteEncoding(t *testing.T) {
	p, q, r := Var("p", BoolSort), Var("q", BoolSort), Var("r", BoolSort)
	e := Ite(p, q, r)
	// Boolean ITE is lowered to connectives, so no OpIte node remains.
	var hasIte func(x *Expr) bool
	hasIte = func(x *Expr) bool {
		if x.Op == OpIte {
			return true
		}
		for _, a := range x.Args {
			if hasIte(a) {
				return true
			}
		}
		return false
	}
	if hasIte(e) {
		t.Errorf("boolean Ite not lowered: %v", e)
	}
}

func TestVarsSorted(t *testing.T) {
	e := And(Eq(Var("z", IntSort), Var("a", IntSort)), Var("m", BoolSort))
	vs := Vars(e)
	if len(vs) != 3 || vs[0].Name != "a" || vs[1].Name != "m" || vs[2].Name != "z" {
		t.Errorf("Vars = %v", vs)
	}
}

// Property: simplification preserves semantics under arbitrary small models.
func TestQuickSimplifyPreservesEval(t *testing.T) {
	x, y := Var("x", IntSort), Var("y", IntSort)
	f := func(xv, yv int8, pick uint8) bool {
		m := modelOf([]*Expr{x, y}, int64(xv), int64(yv))
		var e, ref *Expr
		switch pick % 5 {
		case 0:
			e, ref = Add(x, y), &Expr{Op: OpAdd, Sort: IntSort, Args: []*Expr{x, y}}
		case 1:
			e, ref = Sub(x, y), &Expr{Op: OpSub, Sort: IntSort, Args: []*Expr{x, y}}
		case 2:
			e, ref = Mul(x, y), &Expr{Op: OpMul, Sort: IntSort, Args: []*Expr{x, y}}
		case 3:
			e, ref = Lt(x, y), &Expr{Op: OpLt, Sort: BoolSort, Args: []*Expr{x, y}}
		default:
			e, ref = Le(x, y), &Expr{Op: OpLe, Sort: BoolSort, Args: []*Expr{x, y}}
		}
		return m.Int(e, -1) == m.Int(ref, -2)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestUninterpretedConstEquality(t *testing.T) {
	fn := Uninterpreted("Filename")
	if !Eq(Const(fn, 1), Const(fn, 1)).IsTrue() {
		t.Error("equal uninterpreted constants should fold to true")
	}
	if !Eq(Const(fn, 1), Const(fn, 2)).IsFalse() {
		t.Error("distinct uninterpreted constants should fold to false")
	}
}
