package sym

import (
	"fmt"
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"
)

// TestConstructorHitAllocatesNothing: a constructor that finds its node
// already interned allocates nothing — its argument literal stays on the
// caller's stack, and And/Or flatten and deduplicate up to junctionStack
// (128) arguments on the stack: a scan up to 16, a hash table past that.
// Only a miss copies the arguments into the new node.
func TestConstructorHitAllocatesNothing(t *testing.T) {
	x, y := tscope.Var("hitx", IntSort), tscope.Var("hity", IntSort)
	p, q := tscope.Var("hitp", BoolSort), tscope.Var("hitq", BoolSort)
	var wide [junctionStack]*Expr
	for i := range wide {
		wide[i] = Lt(x, Int(int64(i)))
	}
	// And(lo, True, hi, wide[3]) flattens to 8+7+1 = 16 arguments before
	// its duplicate goes, And(loW, True, hiW, wide[3]) to 64+63+1 = 128,
	// and dups is 100 arguments and 28 repeats of them.
	lo, hi := And(wide[:8]...), And(wide[8:15]...)
	loW, hiW := And(wide[:64]...), And(wide[64:127]...)
	dups := slices.Concat(wide[:100], wide[:28])
	cases := []struct {
		name  string
		build func() *Expr
	}{
		{"Var", func() *Expr { return tscope.Var("hitx", IntSort) }},
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
		{"Or/2", func() *Expr { return or(p, q) }},
		{"And/16", func() *Expr { return And(wide[:16]...) }},
		{"Or/16", func() *Expr { return or(wide[:16]...) }},
		{"And/nested", func() *Expr { return And(lo, True, hi, wide[3]) }},
		{"And/17", func() *Expr { return And(wide[:17]...) }},
		{"And/128", func() *Expr { return And(wide[:]...) }},
		{"Or/128", func() *Expr { return or(wide[:]...) }},
		{"And/nested128", func() *Expr { return And(loW, True, hiW, wide[3]) }},
		{"And/duplicates", func() *Expr { return And(dups...) }},
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
	}
}

// TestConstructorMissAllocatesTheNodeAlone is the other half: a junction
// that makes its node, over up to junctionStack arguments with more than 16
// variables among them, allocates nothing of its own. The node, its
// argument copy and its variable list come from the scope's slabs, whose
// chunks amortize below one allocation a node; the scope's map holds the
// node itself, and a bucket chains through its nodes. No scratch either:
// dedup's table is on the stack, and mergeVars writes straight into the
// node's list.
func TestConstructorMissAllocatesTheNodeAlone(t *testing.T) {
	const runs = 100
	run := fuzzFresh.Add(1)
	for _, n := range []int{2, 17, 64, junctionStack} {
		// Conjunct i is v_i < v_i+1: n arguments over n+1 variables. Every
		// window of the pool is a node not built before.
		v := func(j int) *Expr { return tscope.Var(fmt.Sprintf("miss%d.%d.%d", run, n, j), IntSort) }
		pool := make([]*Expr, runs+1+n)
		for i := range pool {
			pool[i] = Lt(v(i), v(i+1))
		}
		k, made := 0, map[*Expr]bool{}
		allocs := testing.AllocsPerRun(runs, func() {
			made[And(pool[k:k+n]...)] = true
			k++
		})
		if len(made) != runs+1 {
			t.Fatalf("n=%d: %d distinct nodes from %d windows", n, len(made), runs+1)
		}
		// The slabs' chunks and the map's own growth are amortized below
		// one per run.
		if allocs != 0 {
			t.Errorf("a junction of %d arguments making its node: %v allocations, want 0", n, allocs)
		}
	}
}

// TestUnionVarsPastTheBitset holds unionVars to a first-occurrence merge by
// pointer over interned variables mixed with ones whose ids lie past 1<<15:
// the merge tells variables apart by pointer, whatever their ids. Those
// past 1<<15 are made by hand, not interned: a process that interned that
// many names would size every later Solver's scratch for them.
func TestUnionVarsPastTheBitset(t *testing.T) {
	var vars []*Expr
	for i := 0; i < 12; i++ {
		vars = append(vars, tscope.Var(fmt.Sprintf("past.small%d", i), BoolSort))
		big := &Expr{Op: OpVar, Sort: BoolSort, Name: fmt.Sprintf("past.big%d", i), VarID: 1<<15 + i}
		big.vars = []*Expr{big}
		vars = append(vars, big)
	}
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		args := make([]*Expr, 1+r.Intn(20))
		for i := range args {
			a := &Expr{Op: OpNot, Sort: BoolSort}
			for range r.Intn(5) {
				if v := vars[r.Intn(len(vars))]; !slices.Contains(a.vars, v) {
					a.vars = append(a.vars, v)
				}
			}
			args[i] = a
		}
		if got, want := unionVars(nil, args), refUnionVars(args); !slices.Equal(got, want) {
			t.Fatalf("trial %d: unionVars = %v, want %v", trial, got, want)
		}
	}
}

// refUnionVars is the variables of args' lists, in order, each once, by
// pointer.
func refUnionVars(args []*Expr) []*Expr {
	var out []*Expr
	for _, a := range args {
		for _, v := range a.vars {
			if !slices.Contains(out, v) {
				out = append(out, v)
			}
		}
	}
	return out
}

// uncachedString renders e from its fields alone, not from the string
// cached on it.
func uncachedString(e *Expr) string {
	return (&Expr{Op: e.Op, Sort: e.Sort, Int: e.Int, Bool: e.Bool, Name: e.Name, Args: e.Args}).String()
}

// fuzzFresh numbers the variables FuzzAndFlattensLikeNesting makes, so each
// input meets nodes that are certainly not interned yet.
var fuzzFresh atomic.Int64

// FuzzAndFlattensLikeNesting holds And and Or to the contracts their
// callers rely on, over lists of conjuncts the fuzz bytes pick: variables
// (some never seen before), negations, equalities, the constants,
// duplicates, and nested Ands and Ors.
//
//   - Conjoining two lists' conjunctions is conjoining their concatenation:
//     And(And(xs...), And(ys...)) is the very node And(xs..., ys...) is, and
//     likewise for Or. Collecting a formula's conjuncts in one flat list and
//     conjoining once (symx.DictsEquivalent, spec.Equivalent) depends on it.
//   - Its variables are its arguments', in first-occurrence order, once.
//   - A node keeps none of its caller's slice: overwriting the slice passed
//     to a constructor, after it returns, leaves the node's Args and its
//     rendering as they were, whether the call found the node or made it.
//
// long, when not zero, is the length of the first list, so that the
// constructors' scratch is exercised in every regime: past 16 arguments
// dedup's stack table and past junctionStack its map. The seeds hold such
// lists, duplicates among them; no list this long holds a constant, which
// would absorb it.
func FuzzAndFlattensLikeNesting(f *testing.F) {
	for seed := int64(1); seed <= 8; seed++ {
		data := make([]byte, 256)
		rand.New(rand.NewSource(seed)).Read(data)
		f.Add(uint8(0), data)
	}
	f.Add(uint8(0), []byte{})
	for i, long := range []uint8{17, 64, junctionStack, junctionStack + 1, 255} {
		data := make([]byte, 2048)
		rand.New(rand.NewSource(int64(100 + i))).Read(data)
		f.Add(long, data)
	}
	f.Fuzz(func(t *testing.T, long uint8, data []byte) {
		r := rand.New(&byteSource{data})
		sc, sortU := newScope(), Uninterpreted("U")
		fresh := fmt.Sprintf("fz%d", fuzzFresh.Add(1))
		var picked []*Expr
		var elem func(depth int) *Expr
		elem = func(depth int) *Expr {
			var e *Expr
			switch k := r.Intn(9); {
			case k == 0:
				e = sc.Var(fmt.Sprintf("fzp%d", r.Intn(4)), BoolSort)
			case k == 1:
				e = sc.Var(fmt.Sprintf("%s.%d", fresh, r.Intn(3)), BoolSort)
			case k == 2:
				e = Not(sc.Var(fmt.Sprintf("fzp%d", r.Intn(4)), BoolSort))
			case k == 3:
				i, j := r.Intn(3), r.Intn(3)
				if long > 0 {
					j = (i + 1 + r.Intn(2)) % 3 // u = u is the constant true
				}
				e = Eq(sc.Var(fmt.Sprintf("fzu%d", i), sortU), sc.Var(fmt.Sprintf("fzu%d", j), sortU))
			case k == 4 && long == 0: // a constant would absorb a long list early
				e = Bool(r.Intn(4) == 0) // mostly the unit of And
			case k == 5 && len(picked) > 0:
				e = picked[r.Intn(len(picked))]
			case k == 6 && depth > 0:
				e = And(elem(depth-1), elem(depth-1), elem(depth-1))
			case k == 7 && depth > 0:
				e = or(elem(depth-1), elem(depth-1))
			case k == 8:
				e = sc.Var(fmt.Sprintf("fzw%d", r.Intn(192)), BoolSort) // many variables
			default:
				e = sc.Var(fmt.Sprintf("fzp%d", r.Intn(4)), BoolSort)
			}
			picked = append(picked, e)
			return e
		}
		list := func(n int) []*Expr {
			out := make([]*Expr, n)
			for i := range out {
				out[i] = elem(2)
			}
			return out
		}
		n := r.Intn(20)
		if long > 0 {
			n = int(long)
		}
		xs, ys := list(n), list(r.Intn(20))

		for _, c := range []struct {
			name string
			op   func(...*Expr) *Expr
			code Op
		}{{"And", And, OpAnd}, {"Or", or, OpOr}} {
			nested := c.op(c.op(xs...), c.op(ys...))
			flat := c.op(slices.Concat(xs, ys)...)
			if nested != flat {
				t.Fatalf("%s of the two %ss is %v, of the concatenation %v\nxs: %v\nys: %v", c.name, c.name, nested, flat, xs, ys)
			}
			if want := refUnionVars(flat.Args); flat.Op == c.code && !slices.Equal(flat.vars, want) {
				t.Fatalf("%s over %d arguments: variables %v, want %v", c.name, len(flat.Args), flat.vars, want)
			}
		}

		// Every node built above was one constructor call's result; ask for
		// each again through a slice of ours, and for one new node.
		asked := append(slices.Clone(picked), nil)
		for i, e := range asked {
			args := []*Expr{sc.Var(fresh+".new", BoolSort), Not(sc.Var(fresh+".0", BoolSort))}
			if e != nil {
				args = slices.Clone(e.Args)
			}
			var got *Expr
			switch {
			case e == nil || e.Op == OpAnd:
				got = And(args...)
			case e.Op == OpOr:
				got = or(args...)
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
