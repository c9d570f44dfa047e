package symx

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/sym"
)

// The construction DictsEquivalent used before it built each key's shared
// parts once — the name, the default value and every key-equality guard
// rebuilt per field and per side — kept as the reference.

func (d *Dict) refPresentAt(c *Context, k Key) *sym.Expr {
	tag := fmt.Sprintf("%s[%s]", d.Name, k.tag())
	res := c.Var(tag+".present", sym.BoolSort, KindState)
	for _, ip := range c.initProbes[d.Name] {
		if ip.presentVar != nil {
			res = sym.Ite(ip.key.eq(k), ip.presentVar, res)
		} else {
			res = sym.Ite(ip.key.eq(k), sym.True, res)
		}
	}
	for _, e := range d.entries {
		res = sym.Ite(e.Key.eq(k), sym.Bool(e.Present), res)
	}
	return res
}

func (d *Dict) refFieldAt(c *Context, k Key, f string) *sym.Expr {
	tag := fmt.Sprintf("%s[%s]", d.Name, k.tag())
	def := d.MakeVal(c, tag)
	res := def.Get(f)
	for _, ip := range c.initProbes[d.Name] {
		if ip.val == nil {
			continue
		}
		res = sym.Ite(ip.key.eq(k), ip.val.Get(f), res)
	}
	for _, e := range d.entries {
		var v *sym.Expr
		if e.Present {
			v = e.Val.Get(f)
		} else {
			v = res // masked by the presence guard
		}
		res = sym.Ite(e.Key.eq(k), v, res)
	}
	return res
}

func refDictsEquivalent(c *Context, a, b *Dict) *sym.Expr {
	if a.Name != b.Name {
		panic("symx: comparing dictionaries with different identities")
	}
	keys := refUnionKeys(a, b)
	conj := make([]*sym.Expr, 0, len(keys))
	for _, k := range keys {
		pa := a.refPresentAt(c, k)
		pb := b.refPresentAt(c, k)
		clause := sym.Eq(pa, pb)
		fields := refFieldSetAt(a, b, k)
		for _, f := range fields {
			fa := a.refFieldAt(c, k, f)
			fb := b.refFieldAt(c, k, f)
			clause = sym.And(clause, sym.Implies(pa, sym.Eq(fa, fb)))
		}
		conj = append(conj, clause)
	}
	return sym.And(conj...)
}

func refUnionKeys(a, b *Dict) []Key {
	var keys []Key
	seen := map[string]bool{}
	for _, d := range []*Dict{a, b} {
		for _, e := range d.entries {
			t := e.Key.tag()
			if !seen[t] {
				seen[t] = true
				keys = append(keys, e.Key)
			}
		}
	}
	return keys
}

func refFieldSetAt(a, b *Dict, k Key) []string {
	for _, d := range []*Dict{a, b} {
		for _, e := range d.entries {
			if e.Present && e.Val != nil {
				out := append([]string(nil), e.Val.FieldOrder...)
				sort.Strings(out)
				return out
			}
		}
	}
	return nil
}

// dictKind is one shape of dictionary the random histories run on.
type dictKind struct {
	name  string
	total bool
	mk    func(c *Context, tag string) *Struct
	val   func(c *Context, r *rand.Rand, pool []*sym.Expr) *Struct
}

func pick(r *rand.Rand, pool []*sym.Expr) *sym.Expr { return pool[r.Intn(len(pool))] }

// dictKinds: a two-field dictionary whose MakeVal Assumes an invariant, a
// single-field one, and a total-function one.
var dictKinds = []dictKind{
	{name: "qs", mk: func(c *Context, tag string) *Struct {
		x := c.Var(tag+".x", sym.IntSort, KindState)
		c.Assume(sym.Ge(x, sym.Int(0)))
		return NewStruct(c, "x", x, "w", c.Var(tag+".w", sym.BoolSort, KindState))
	}, val: func(c *Context, r *rand.Rand, pool []*sym.Expr) *Struct {
		return NewStruct(c, "x", pick(r, pool), "w", sym.Bool(r.Intn(2) == 0))
	}},
	{name: "qe", mk: func(c *Context, tag string) *Struct {
		return NewStruct(c, "val", c.Var(tag+".val", sym.IntSort, KindState))
	}, val: func(c *Context, r *rand.Rand, pool []*sym.Expr) *Struct { return NewStruct(c, "val", pick(r, pool)) }},
	{name: "qt", total: true, mk: func(c *Context, tag string) *Struct {
		return NewStruct(c, "n", c.Var(tag+".n", sym.IntSort, KindState))
	}, val: func(c *Context, r *rand.Rand, pool []*sym.Expr) *Struct { return NewStruct(c, "n", pick(r, pool)) }},
}

// dictHistory runs on c the random history r draws: Set/Del/Get/Contains
// on a dictionary of one of dictKinds, or GetFunc/Set on a total-function
// one — two instances of it, as the two permutations of a pair hold them,
// probing a handful of keys that the explored paths make equal or distinct
// in every combination, so one location is reached under different tuples.
// writeOnly keeps to Set and Del (Set alone on a total-function one), so
// no key is probed. The history depends on r alone, never on a decision,
// so every replay performs the same calls.
func dictHistory(c *Context, r *rand.Rand, writeOnly bool) [2]*Dict {
	k := dictKinds[r.Intn(len(dictKinds))]
	a, b := c.Var("qa", nameSort, KindArg), c.Var("qb", nameSort, KindArg)
	i, j := c.Var("qi", sym.IntSort, KindArg), c.Var("qj", sym.IntSort, KindArg)
	keys := []Key{K(a, i), K(b, i), K(a, j), K(b, sym.Int(1)), K(sym.Const(nameSort, 0), j)}
	ints := []*sym.Expr{i, j, sym.Int(0), sym.Add(i, sym.Int(1))}
	ds := [2]*Dict{NewDict(c, k.name, k.mk), NewDict(c, k.name, k.mk)}
	for n := 2 + r.Intn(5); n > 0; n-- {
		d, key := ds[r.Intn(2)], keys[r.Intn(len(keys))]
		switch op := r.Intn(4); {
		case op == 0 || writeOnly && k.total:
			d.Set(c, key, k.val(c, r, ints))
		case k.total:
			d.GetFunc(c, key)
		case op == 1 || writeOnly:
			d.Del(c, key)
		case op == 2:
			d.Contains(c, key)
		default:
			if d.Contains(c, key) {
				d.Get(c, key)
			}
		}
	}
	return ds
}

// TestQuickDictsEquivalentMatchesPerField: over random histories
// (dictHistory), the conjunction of the flat list DictsEquivalent appends
// is, on every path, the very node the per-field reference builds by
// nesting one And per field and per key.
func TestQuickDictsEquivalentMatchesPerField(t *testing.T) {
	compared := 0
	check := func(seed int64) bool {
		ok := true
		paths := explore(func(c *Context) any {
			ds := dictHistory(c, rand.New(rand.NewSource(seed)), false)
			var got, want *sym.Expr
			if seed%2 == 0 {
				got, want = sym.And(DictsEquivalent(nil, c, ds[0], ds[1])...), refDictsEquivalent(c, ds[0], ds[1])
			} else {
				want, got = refDictsEquivalent(c, ds[0], ds[1]), sym.And(DictsEquivalent(nil, c, ds[0], ds[1])...)
			}
			compared++
			if got != want {
				ok = false
				t.Errorf("seed %d under %v:\n per key:   %v\n per field: %v", seed, c.PC(), got, want)
			}
			return nil
		}, Options{MaxPaths: 64})
		return ok && len(paths) > 0
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
	t.Logf("%d paths compared", compared)
}
