package sym

import (
	"fmt"
	"math/rand"
	"testing"
)

// TestWarmScopeRebuildsWithoutAllocating: once both of a scope's banks
// have held a generation, a reset followed by building the same nodes
// again — variables, compound nodes over them, their lists — allocates
// nothing: the slabs hand their slots out again, the map keeps its
// storage, and the variable ids are the scope's.
func TestWarmScopeRebuildsWithoutAllocating(t *testing.T) {
	var s Solver
	sc := s.Scope()
	const n = 40
	var names [n][3]string
	for i := range names {
		for k := range names[i] {
			names[i][k] = fmt.Sprintf("warm.%d.%d", i, k)
		}
	}
	su := Uninterpreted("WarmU")
	built := 0
	build := func() {
		acc := True
		for i, v := range names {
			x, p := sc.Var(v[0], IntSort), sc.Var(v[1], BoolSort)
			u, w := sc.Var(v[2], su), sc.Var(names[(i+1)%n][2], su)
			acc = And(acc, Ite(p, Lt(x, Int(int64(i))), Eq(u, w)), Le(Add(x, Int(1)), Mul(x, Int(2))))
		}
		built = len(acc.Args)
	}
	for range 2 {
		s.Forget()
		build()
	}
	if n := testing.AllocsPerRun(10, func() {
		s.Forget()
		build()
	}); n != 0 {
		t.Errorf("a reset and a rebuild on warm slabs: %v allocations, want 0", n)
	}
	if built != 2*n {
		t.Fatalf("the conjunction has %d conjuncts, want %d", built, 2*n)
	}
}

// progSorts are the sorts the construction programs of
// FuzzReusedScopeBuildsLikeFresh build over.
var progSorts = [3]Sort{BoolSort, IntSort, Uninterpreted("ProgU")}

// buildProgram runs on sc the construction program r draws: variables of
// a handful of names per sort, and compound nodes over earlier results of
// every constructor. The program depends on r alone, so two scopes fed
// the same bytes run the same calls; it returns every call's result.
func buildProgram(sc *Scope, r *rand.Rand) []*Expr {
	var pool [3][]*Expr
	var out []*Expr
	pick := func(s int) *Expr {
		if len(pool[s]) == 0 {
			return sc.Var(fmt.Sprintf("prog.%d.0", s), progSorts[s])
		}
		return pool[s][r.Intn(len(pool[s]))]
	}
	for n := 8 + r.Intn(120); n > 0; n-- {
		var e *Expr
		switch r.Intn(12) {
		case 0, 1:
			s := r.Intn(3)
			e = sc.Var(fmt.Sprintf("prog.%d.%d", s, r.Intn(6)), progSorts[s])
		case 2:
			e = Not(pick(0))
		case 3:
			e = And(pick(0), pick(0), pick(0))
		case 4:
			e = or(pick(0), pick(0))
		case 5:
			s := r.Intn(3)
			e = Eq(pick(s), pick(s))
		case 6:
			e = Lt(pick(1), pick(1))
		case 7:
			e = Le(pick(1), Int(int64(r.Intn(4))))
		case 8:
			e = Add(pick(1), pick(1))
		case 9:
			e = Sub(pick(1), Int(int64(r.Intn(3))))
		case 10:
			e = Mul(pick(1), Int(int64(r.Intn(3))))
		default:
			s := r.Intn(3)
			e = Ite(pick(0), pick(s), pick(s))
		}
		for s := range progSorts {
			if e.Sort == progSorts[s] {
				pool[s] = append(pool[s], e)
			}
		}
		out = append(out, e)
	}
	return out
}

// touch hands e, a node of an earlier generation of sc, to a constructor
// together with a node of sc's current one; the constructor must get as
// far as interning, so it panics on e.
func touch(sc *Scope, e *Expr) {
	switch e.Sort.Kind {
	case KindBool:
		And(e, sc.Var("prog.touch.p", BoolSort))
	case KindInt:
		Add(e, sc.Var("prog.touch.i", IntSort))
	default:
		Eq(e, sc.Var("prog.touch.u", e.Sort))
	}
}

// FuzzReusedScopeBuildsLikeFresh runs construction programs (buildProgram)
// over several generations of one Solver, forgetting between them, and
// each generation's program again on a fresh Solver. Every generation must
// render every result as the fresh Solver's does, cached and from its
// fields, with the same variable lists; two results must be one node
// exactly when they are on the fresh Solver (hash-consing holds on reused
// slots); every node must have an id no earlier generation had; and every
// node of the generation before — whose bank the current one leaves alone
// — must still render as it did, and panic when it reaches a constructor.
func FuzzReusedScopeBuildsLikeFresh(f *testing.F) {
	for seed := int64(1); seed <= 8; seed++ {
		data := make([]byte, 64<<(seed%5)+int(seed%4)) // 2 to 5 generations
		rand.New(rand.NewSource(seed)).Read(data)
		f.Add(data)
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		gens := 2 + len(data)%4
		var reused Solver
		sc := reused.Scope()
		seen := map[uint64]bool{}
		var prev []*Expr
		var prevStr []string
		for g := range gens {
			part := data[g*len(data)/gens : (g+1)*len(data)/gens]
			if g > 0 {
				reused.Forget()
			}
			got := buildProgram(sc, rand.New(&byteSource{part}))
			want := buildProgram(new(Solver).Scope(), rand.New(&byteSource{part}))
			if len(got) != len(want) {
				t.Fatalf("generation %d: %d results, %d on a fresh Solver", g, len(got), len(want))
			}
			for i, e := range got {
				if e.String() != want[i].String() || uncachedString(e) != want[i].String() {
					t.Fatalf("generation %d, result %d: %q (from its fields %q), %q on a fresh Solver", g, i, e.String(), uncachedString(e), want[i].String())
				}
				if fmt.Sprint(e.vars) != fmt.Sprint(want[i].vars) {
					t.Fatalf("generation %d, result %d: variables %v, %v on a fresh Solver", g, i, e.vars, want[i].vars)
				}
				for j := range i {
					if (e == got[j]) != (want[i] == want[j]) {
						t.Fatalf("generation %d: results %d and %d one node: %v, on a fresh Solver: %v", g, j, i, e == got[j], want[i] == want[j])
					}
				}
			}
			ids := map[uint64]bool{}
			for _, e := range got {
				if e.scope == nil {
					continue
				}
				if seen[e.id] {
					t.Fatalf("generation %d: node %v has id %#x of an earlier generation", g, e, e.id)
				}
				ids[e.id] = true
			}
			for i, e := range prev {
				if e.scope == nil {
					continue
				}
				if s := uncachedString(e); s != prevStr[i] || e.String() != prevStr[i] {
					t.Fatalf("generation %d: the previous generation's %q reads %q (cached %q)", g, prevStr[i], s, e.String())
				}
				mustPanic(t, "reset", func() { touch(sc, e) })
			}
			for id := range ids {
				seen[id] = true
			}
			prev, prevStr = got, prevStr[:0]
			for _, e := range got {
				prevStr = append(prevStr, e.String())
			}
		}
	})
}
