package sym

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
)

// TestConstructorHitAllocatesNothing: a constructor that finds its node
// already interned allocates nothing — its argument literal stays on the
// caller's stack, and And/Or flatten and deduplicate up to 16 arguments in a
// stack buffer. Only a miss copies the arguments into the new node.
func TestConstructorHitAllocatesNothing(t *testing.T) {
	x, y := Var("hitx", IntSort), Var("hity", IntSort)
	p, q := Var("hitp", BoolSort), Var("hitq", BoolSort)
	var wide [16]*Expr
	for i := range wide {
		wide[i] = Lt(x, Int(int64(i)))
	}
	// Held here: a node nothing references may be collected, and building
	// it again is a miss. And(lo, True, hi, wide[3]) flattens to 8+7+1 = 16
	// arguments before its duplicate goes.
	lo, hi := And(wide[:8]...), And(wide[8:15]...)
	cases := []struct {
		name  string
		build func() *Expr
	}{
		{"Var", func() *Expr { return Var("hitx", IntSort) }},
		{"Int", func() *Expr { return Int(7) }},
		{"Not", func() *Expr { return Not(p) }},
		{"Eq", func() *Expr { return Eq(y, x) }},
		{"Lt", func() *Expr { return Lt(x, y) }},
		{"Le", func() *Expr { return Le(x, y) }},
		{"Add", func() *Expr { return Add(x, y) }},
		{"Sub", func() *Expr { return Sub(x, y) }},
		{"Mul", func() *Expr { return Mul(x, y) }},
		{"Ite", func() *Expr { return Ite(p, x, y) }},
		{"Implies", func() *Expr { return Implies(p, q) }},
		{"And/2", func() *Expr { return And(p, q) }},
		{"Or/2", func() *Expr { return Or(p, q) }},
		{"And/16", func() *Expr { return And(wide[:]...) }},
		{"Or/16", func() *Expr { return Or(wide[:]...) }},
		{"And/nested", func() *Expr { return And(lo, True, hi, wide[3]) }},
	}
	for _, c := range cases {
		node := c.build()
		if n := testing.AllocsPerRun(100, func() {
			if c.build() != node {
				t.Fatalf("%s: rebuilding returned another node", c.name)
			}
		}); n != 0 {
			t.Errorf("%s on an existing node: %v allocations, want 0", c.name, n)
		}
		runtime.KeepAlive(node)
	}
}

// uncachedString renders e from its fields alone, not from the string
// cached on it.
func uncachedString(e *Expr) string {
	return (&Expr{Op: e.Op, Sort: e.Sort, Int: e.Int, Bool: e.Bool, Name: e.Name, Args: e.Args}).String()
}

// fuzzFresh numbers the variables FuzzAndFlattensLikeNesting makes, so each
// input meets nodes that are certainly not interned yet.
var fuzzFresh atomic.Int64

// FuzzAndFlattensLikeNesting holds And and Or to the two contracts their
// callers rely on, over lists of conjuncts the fuzz bytes pick: variables
// (some never seen before), negations, equalities, the constants,
// duplicates, and nested Ands and Ors.
//
//   - Conjoining two lists' conjunctions is conjoining their concatenation:
//     And(And(xs...), And(ys...)) is the very node And(xs..., ys...) is, and
//     likewise for Or. Collecting a formula's conjuncts in one flat list and
//     conjoining once (symx.DictsEquivalent, spec.Equivalent) depends on it.
//   - A node keeps none of its caller's slice: overwriting the slice passed
//     to a constructor, after it returns, leaves the node's Args and its
//     rendering as they were, whether the call found the node or made it.
func FuzzAndFlattensLikeNesting(f *testing.F) {
	for seed := int64(1); seed <= 8; seed++ {
		data := make([]byte, 256)
		rand.New(rand.NewSource(seed)).Read(data)
		f.Add(data)
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := rand.New(&byteSource{data})
		sortU := Uninterpreted("U")
		fresh := fmt.Sprintf("fz%d", fuzzFresh.Add(1))
		var picked []*Expr
		var elem func(depth int) *Expr
		elem = func(depth int) *Expr {
			var e *Expr
			switch k := r.Intn(8); {
			case k == 0:
				e = Var(fmt.Sprintf("fzp%d", r.Intn(4)), BoolSort)
			case k == 1:
				e = Var(fmt.Sprintf("%s.%d", fresh, r.Intn(3)), BoolSort)
			case k == 2:
				e = Not(Var(fmt.Sprintf("fzp%d", r.Intn(4)), BoolSort))
			case k == 3:
				e = Eq(Var(fmt.Sprintf("fzu%d", r.Intn(3)), sortU), Var(fmt.Sprintf("fzu%d", r.Intn(3)), sortU))
			case k == 4:
				e = Bool(r.Intn(4) == 0) // mostly the unit of And
			case k == 5 && len(picked) > 0:
				e = picked[r.Intn(len(picked))]
			case k == 6 && depth > 0:
				e = And(elem(depth-1), elem(depth-1), elem(depth-1))
			case k == 7 && depth > 0:
				e = Or(elem(depth-1), elem(depth-1))
			default:
				e = Var(fmt.Sprintf("fzp%d", r.Intn(4)), BoolSort)
			}
			picked = append(picked, e)
			return e
		}
		list := func() []*Expr {
			out := make([]*Expr, r.Intn(20))
			for i := range out {
				out[i] = elem(2)
			}
			return out
		}
		xs, ys := list(), list()

		for _, c := range []struct {
			name string
			op   func(...*Expr) *Expr
		}{{"And", And}, {"Or", Or}} {
			nested := c.op(c.op(xs...), c.op(ys...))
			if flat := c.op(slices.Concat(xs, ys)...); nested != flat {
				t.Fatalf("%s of the two %ss is %v, of the concatenation %v\nxs: %v\nys: %v", c.name, c.name, nested, flat, xs, ys)
			}
		}

		// Every node built above was one constructor call's result; ask for
		// each again through a slice of ours, and for one new node.
		asked := append(slices.Clone(picked), nil)
		for i, e := range asked {
			args := []*Expr{Var(fresh+".new", BoolSort), Not(Var(fresh+".0", BoolSort))}
			if e != nil {
				args = slices.Clone(e.Args)
			}
			var got *Expr
			switch {
			case e == nil || e.Op == OpAnd:
				got = And(args...)
			case e.Op == OpOr:
				got = Or(args...)
			default:
				continue // a fixed-arity constructor takes no slice of the caller's
			}
			if e != nil && got != e {
				t.Fatalf("node %d: asked again, %v became %v", i, e, got)
			}
			keep, want := slices.Clone(got.Args), uncachedString(got)
			for j := range args {
				args[j] = False
			}
			if !slices.Equal(got.Args, keep) {
				t.Fatalf("node %d: overwriting the caller's slice changed Args to %v", i, got.Args)
			}
			if s := uncachedString(got); s != want || got.String() != want {
				t.Fatalf("node %d: rendered %q before the caller's slice was overwritten, %q (cached %q) after", i, want, s, got.String())
			}
		}
	})
}
