package sym

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// freshString renders e from the fields of every node, reading no
// rendering cached anywhere in it.
func freshString(e *Expr) string {
	var b strings.Builder
	var walk func(e *Expr)
	walk = func(e *Expr) {
		if e.Op == OpConst || e.Op == OpVar {
			b.WriteString(uncachedString(e))
			return
		}
		b.WriteString("(" + opName(e.Op))
		for _, a := range e.Args {
			b.WriteByte(' ')
			walk(a)
		}
		b.WriteByte(')')
	}
	walk(e)
	return b.String()
}

func sign(n int) int {
	switch {
	case n < 0:
		return -1
	case n > 0:
		return 1
	}
	return 0
}

// orderNames are variable names that render like parts of other terms.
var orderNames = []string{"x", "x ", "x y", "(x", "x)", "(+ x", "(ite", ")", "", "-1", "1", "100", "true", "U!1", "a(b) c"}

// orderGen builds terms of three sorts over shared pools, so two terms
// built one after the other share subterms.
type orderGen struct {
	r                *rand.Rand
	fresh            string
	ints, bools, uns []*Expr
}

var orderSort = Uninterpreted("U")

func (g *orderGen) name() string { return orderNames[g.r.Intn(len(orderNames))] }

func (g *orderGen) pick(pool []*Expr, or func() *Expr) *Expr {
	if len(pool) == 0 {
		return or()
	}
	return pool[g.r.Intn(len(pool))]
}

func (g *orderGen) int(depth int) *Expr {
	var e *Expr
	switch k := g.r.Intn(8); {
	case k == 0:
		switch g.r.Intn(3) {
		case 0:
			e = Int(int64(g.r.Intn(100)))
		case 1:
			e = Int(-1 - int64(g.r.Intn(1000)))
		default:
			e = Int(100 + int64(g.r.Intn(100000)))
		}
	case k == 1:
		e = Var(g.fresh, IntSort)
	case k == 2:
		e = g.pick(g.ints, func() *Expr { return Int(7) })
	case k == 3 && depth > 0:
		e = Add(g.int(depth-1), g.int(depth-1))
	case k == 4 && depth > 0:
		e = Sub(g.int(depth-1), g.int(depth-1))
	case k == 5 && depth > 0:
		e = Ite(g.bool(depth-1), g.int(depth-1), g.int(depth-1))
	default:
		e = Var(g.name(), IntSort)
	}
	g.ints = append(g.ints, e)
	return e
}

func (g *orderGen) bool(depth int) *Expr {
	var e *Expr
	switch k := g.r.Intn(10); {
	case k == 0:
		e = Bool(g.r.Intn(2) == 0)
	case k == 2:
		e = g.pick(g.bools, func() *Expr { return True })
	case k == 3 && depth > 0:
		e = Not(g.bool(depth - 1))
	case k == 4 && depth > 0:
		e = And(g.bool(depth-1), g.bool(depth-1))
	case k == 5 && depth > 0:
		e = Or(g.bool(depth-1), g.bool(depth-1))
	case k == 6 && depth > 0:
		e = Eq(g.int(depth-1), g.int(depth-1))
	case k == 7 && depth > 0:
		e = Lt(g.int(depth-1), g.int(depth-1))
	case k == 8 && depth > 0:
		e = Eq(g.un(depth-1), g.un(depth-1))
	default:
		e = Var(g.name(), BoolSort)
	}
	g.bools = append(g.bools, e)
	return e
}

func (g *orderGen) un(depth int) *Expr {
	var e *Expr
	switch k := g.r.Intn(4); {
	case k == 0:
		e = Const(orderSort, int64(g.r.Intn(3)))
	case k == 2:
		e = g.pick(g.uns, func() *Expr { return Const(orderSort, 0) })
	case k == 3 && depth > 0:
		e = Ite(g.bool(depth-1), g.un(depth-1), g.un(depth-1))
	default:
		e = Var(g.name(), orderSort)
	}
	g.uns = append(g.uns, e)
	return e
}

// FuzzCompareRenderedMatchesStrings holds compareRendered, the order Eq
// puts its operands in, to the order of the renderings it never builds:
// its sign is strings.Compare's over fresh renders. The fuzz bytes build
// two terms of integers (negative, small and past 99), booleans,
// uninterpreted constants and variables named like fragments of other
// renderings, under Ite, Add, Sub, Not, And, Or, Eq and Lt; the terms share
// subterms, some of which already cache their renderings. deep, when not
// zero, wraps two integer terms in one common chain of that many Add, Sub
// and Ite nodes, so that the walk reaches their difference past
// compareDepth.
func FuzzCompareRenderedMatchesStrings(f *testing.F) {
	for seed := int64(1); seed <= 8; seed++ {
		data := make([]byte, 512)
		rand.New(rand.NewSource(seed)).Read(data)
		f.Add(uint8(0), data)
	}
	f.Add(uint8(0), []byte{})
	for i, deep := range []uint8{compareDepth - 1, compareDepth, compareDepth + 1, 40, 64} {
		data := make([]byte, 4096)
		rand.New(rand.NewSource(int64(100 + i))).Read(data)
		f.Add(deep, data)
	}
	f.Fuzz(func(t *testing.T, deep uint8, data []byte) {
		g := &orderGen{r: rand.New(&byteSource{data}), fresh: fmt.Sprintf("ord%d", fuzzFresh.Add(1))}
		var a, b *Expr
		switch k := g.r.Intn(3); {
		case k == 0 || deep > 0:
			a, b = g.int(3), g.int(3)
			for range deep {
				v := g.int(0)
				switch g.r.Intn(3) {
				case 0:
					a, b = Add(v, a), Add(v, b)
				case 1:
					a, b = Sub(a, v), Sub(b, v)
				default:
					c := g.bool(1)
					a, b = Ite(c, a, v), Ite(c, b, v)
				}
			}
		case k == 1:
			a, b = g.bool(3), g.bool(3)
		default:
			a, b = g.un(3), g.un(3)
		}
		for _, pool := range [][]*Expr{g.ints, g.bools, g.uns} {
			for _, e := range pool {
				if g.r.Intn(3) == 0 {
					_ = e.String()
				}
			}
		}
		want := strings.Compare(freshString(a), freshString(b))
		if got := sign(compareRendered(a, b)); got != want {
			t.Fatalf("compareRendered = %d, strings.Compare = %d\na: %s\nb: %s", got, want, freshString(a), freshString(b))
		}
		if got := sign(compareRendered(b, a)); got != -want {
			t.Fatalf("reversed: compareRendered = %d, want %d", got, -want)
		}
		if compareRendered(a, a) != 0 {
			t.Fatalf("a node against itself: not 0")
		}
	})
}

// TestEqRendersNothing: Eq orders operands it has never seen rendered —
// ITE chains sharing their tail, as DictsEquivalent compares — without
// caching a rendering on them, and finding the node again allocates
// nothing.
func TestEqRendersNothing(t *testing.T) {
	fresh := fmt.Sprintf("eqr%d", fuzzFresh.Add(1))
	v := func(s string) *Expr { return Var(fresh+s, IntSort) }
	tail := v(".init")
	for i := 0; i < 8; i++ {
		tail = Ite(Eq(v(fmt.Sprint(i)), v(".k")), Int(int64(i)), tail)
	}
	a, b := Add(tail, v(".a")), Add(tail, v(".b"))
	e := Eq(a, b)
	for _, n := range []*Expr{a, b, tail} {
		if n.str.Load() != nil {
			t.Errorf("Eq cached the rendering of an operand: %s", n)
		}
	}
	if want := Eq(b, a); want != e {
		t.Fatalf("Eq(b, a) is another node than Eq(a, b)")
	}
	if n := testing.AllocsPerRun(100, func() { Eq(b, a) }); n != 0 {
		t.Errorf("Eq of deep operands on an existing node: %v allocations, want 0", n)
	}
	if l, r := e.Args[0].String(), e.Args[1].String(); l > r {
		t.Errorf("Eq's operands are out of order:\n%s\n%s", l, r)
	}
}
