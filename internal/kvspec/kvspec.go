// Package kvspec is a symbolic model of an ordered key-value store,
// registered as the "kv" spec: get, put and delete point operations plus
// a range scan over a bounded, ordered key domain. A key-value store is
// the canonical interface behind the serve/fleet stack this repository
// scales, and its commutativity structure is the one the scalable
// commutativity rule predicts for every ordered map:
//
//   - Point operations on distinct keys always commute: each one
//     observes and mutates a single binding, so orders over different
//     keys are indistinguishable — the executions a hash-partitioned or
//     B-tree-leaf-partitioned implementation makes conflict-free.
//   - Scans conflict with mutations inside their range: scan returns the
//     live bindings of [lo, hi], so a put that inserts or changes a key
//     in that window (or a delete that removes one) is observable across
//     orders and the pair does not commute. Mutations outside the
//     scanned range commute with the scan.
//   - Same-key structure mirrors POSIX names: put/put with different
//     values never commutes (last writer wins), delete/delete of one key
//     never commutes (the second returns ENOENT, like unlink), and
//     get/put commutes only when the put rewrites the value already
//     there.
//
// The reference in-memory implementation is internal/kernel/memkv,
// checked by the standard MTRACE runner.
package kvspec

import (
	"cmp"
	"slices"

	"repro/internal/kernel"
	"repro/internal/kernel/memkv"
	"repro/internal/spec"
	"repro/internal/sym"
	"repro/internal/symx"
)

// state is the symbolic store state: one total-function dictionary whose
// per-key binding carries an explicit presence bit, so the range scan can
// fold membership arithmetically instead of forking per key. Its domains
// are memkv's bounds, small like the other specs': keys 0..memkv.NKeys-1,
// in order, and stored values 0..memkv.MaxVal.
type state struct {
	// KV maps (key) -> {present, val}: the ordered map's bindings.
	KV *symx.Dict
	// dicts is Dicts' slice.
	dicts [1]*symx.Dict
}

// Dicts returns the dictionaries in comparison order (the spec layer's
// State contract).
func (s *state) Dicts() []*symx.Dict { return s.dicts[:] }

func errRet(errno int64) []*sym.Expr {
	return []*sym.Expr{sym.Int(-errno), sym.Int(0), sym.Int(0), sym.Int(0), sym.Int(0)}
}

func okRet(code, i1, data *sym.Expr) []*sym.Expr {
	return []*sym.Expr{code, i1, sym.Int(0), sym.Int(0), data}
}

func st(x *spec.Exec) *state { return x.S.(*state) }

func keyArg(name string) spec.ArgSpec {
	return spec.ArgSpec{Name: name, Sort: sym.IntSort, Min: 0, Max: memkv.NKeys - 1, Bounded: true}
}

// ops is the op table: the four modeled operations in canonical (matrix)
// order, built once per process.
var ops = []*spec.Op{opGet(), opPut(), opDelete(), opScan()}

func opGet() *spec.Op {
	return &spec.Op{
		Name: "get",
		Args: []spec.ArgSpec{keyArg("key")},
		Exec: func(x *spec.Exec, slot string, a []*sym.Expr) []*sym.Expr {
			s, key := st(x), a[0]
			v := s.KV.GetFunc(x.C, symx.K(key))
			if !x.C.Branch(v.Get("present")) {
				return errRet(kernel.ENOENT)
			}
			return okRet(sym.Int(0), sym.Int(0), v.Get("val"))
		},
	}
}

func opPut() *spec.Op {
	return &spec.Op{
		Name: "put",
		Args: []spec.ArgSpec{keyArg("key"),
			{Name: "val", Sort: sym.IntSort, Min: 0, Max: memkv.MaxVal, Bounded: true}},
		Exec: func(x *spec.Exec, slot string, a []*sym.Expr) []*sym.Expr {
			s, key, val := st(x), a[0], a[1]
			s.KV.Set(x.C, symx.K(key), symx.NewStruct(x.C, "present", sym.True, "val", val))
			// No "was it an insert?" receipt: like O_ANYFD, returning
			// less is what lets put/put on distinct keys commute even
			// with scans of disjoint ranges interleaved.
			return okRet(sym.Int(0), sym.Int(0), sym.Int(0))
		},
	}
}

func opDelete() *spec.Op {
	return &spec.Op{
		Name: "delete",
		Args: []spec.ArgSpec{keyArg("key")},
		Exec: func(x *spec.Exec, slot string, a []*sym.Expr) []*sym.Expr {
			s, key := st(x), a[0]
			v := s.KV.GetFunc(x.C, symx.K(key))
			if !x.C.Branch(v.Get("present")) {
				return errRet(kernel.ENOENT) // like unlink of a missing name
			}
			s.KV.Set(x.C, symx.K(key), symx.NewStruct(x.C, "present", sym.False, "val", sym.Int(0)))
			return okRet(sym.Int(0), sym.Int(0), sym.Int(0))
		},
	}
}

// opScan's fingerprint weighs each key memkv.ScanWeight times the key
// before it: strictly more than memkv.MaxVal+1, so the fingerprint is an
// injective encoding of the scanned window's bindings (which keys are
// present, and each present key's value).
func opScan() *spec.Op {
	return &spec.Op{
		Name: "scan",
		Args: []spec.ArgSpec{keyArg("lo"), keyArg("hi")},
		Exec: func(x *spec.Exec, slot string, a []*sym.Expr) []*sym.Expr {
			s, lo, hi := st(x), a[0], a[1]
			// Fold the window arithmetically over the (bounded, ordered)
			// key domain: no branching, so scans stay cheap to analyze.
			// count is the number of live bindings in [lo, hi]; fp is the
			// injective fingerprint Σ in-window (val+1)·ScanWeight^key —
			// together they expose exactly the window's content, which is
			// what makes in-range mutations order-observable.
			count, fp := sym.Int(0), sym.Int(0)
			weight := int64(1)
			for k := int64(0); k < memkv.NKeys; k++ {
				v := s.KV.GetFunc(x.C, symx.K(sym.Int(k)))
				in := sym.And(
					sym.Le(lo, sym.Int(k)), sym.Le(sym.Int(k), hi), v.Get("present"))
				count = sym.Add(count, sym.Ite(in, sym.Int(1), sym.Int(0)))
				fp = sym.Add(fp, sym.Ite(in,
					sym.Mul(sym.Add(v.Get("val"), sym.Int(1)), sym.Int(weight)), sym.Int(0)))
				weight *= memkv.ScanWeight
			}
			return okRet(count, fp, sym.Int(0))
		},
	}
}

// kvSpec packages the model as the registered "kv" spec.
type kvSpec struct{}

// Spec is the key-value model as a pluggable pipeline spec.
var Spec spec.Spec = kvSpec{}

func init() { spec.Register(Spec) }

func (kvSpec) Name() string { return "kv" }

func (kvSpec) Ops() []*spec.Op { return ops }

func (kvSpec) Sets() map[string][]string {
	return map[string][]string{
		"point": {"get", "put", "delete"},
		"range": {"scan"},
	}
}

// DefaultSet: the kv universe is tiny, so default to all of it.
func (kvSpec) DefaultSet() string { return "all" }

// NewState builds the symbolic state with unconstrained initial content:
// every key starts arbitrarily present or absent with an arbitrary
// bounded value. The state lives in the region of c's Solver (symx.New).
func (kvSpec) NewState(c *symx.Context, cfg spec.Config) spec.State {
	s := symx.New[state](c)
	s.KV = symx.NewDict(c, "kv", func(c *symx.Context, tag string) *symx.Struct {
		present := c.Var(tag+".present", sym.BoolSort, symx.KindState)
		val := c.Var(tag+".val", sym.IntSort, symx.KindState)
		c.Assume(sym.And(sym.Ge(val, sym.Int(0)), sym.Le(val, sym.Int(memkv.MaxVal))))
		return symx.NewStruct(c, "present", present, "val", val)
	})
	s.dicts = [...]*symx.Dict{s.KV}
	return s
}

func (kvSpec) Impls() []spec.Impl {
	return []spec.Impl{{Name: "memkv", New: func() kernel.Kernel { return memkv.New() }}}
}

// FixupCall is a no-op: the kv interface has no per-call spec flags.
func (kvSpec) FixupCall(cfg spec.Config, call *kernel.Call) {}

// miner is the kv SetupMiner: the map and slice a setup is mined into,
// cleared and reused from model to model. It rebuilds the concrete store:
// every key the witness probed as present becomes a seeded binding with
// the probed value. out is the Setup it returns, over kvs.
type miner struct {
	seen map[int64]bool
	kvs  []memkv.SetupKV
	out  memkv.Setup
}

// NewMiner returns a kv miner with its map made.
func (kvSpec) NewMiner() spec.SetupMiner { return &miner{seen: map[int64]bool{}} }

// Setup mines the store's bindings under m.
func (mn *miner) Setup(m sym.Model, probes *spec.Probes) kernel.Setup {
	clear(mn.seen)
	mn.kvs = mn.kvs[:0]
	for _, p := range probes.Eval("kv", m) {
		if !p.Bool("present") {
			continue
		}
		key := spec.Clamp(p.Key[0], 0, memkv.NKeys-1)
		if mn.seen[key] {
			continue
		}
		mn.seen[key] = true
		mn.kvs = append(mn.kvs, memkv.SetupKV{
			Key: key, Val: spec.Clamp(p.Field("val"), 0, memkv.MaxVal)})
	}
	slices.SortFunc(mn.kvs, func(a, b memkv.SetupKV) int { return cmp.Compare(a.Key, b.Key) })
	mn.out = memkv.Setup{KVs: spec.OrNil(mn.kvs)}
	return &mn.out
}
