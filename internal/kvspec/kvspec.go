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
	"sort"

	"repro/internal/kernel"
	"repro/internal/kernel/memkv"
	"repro/internal/spec"
	"repro/internal/sym"
	"repro/internal/symx"
)

// Bounds keep the symbolic domains small, like the other specs'.
const (
	// NKeys bounds the ordered key domain: keys are 0..NKeys-1.
	NKeys = 3
	// MaxVal bounds stored values: 0..MaxVal.
	MaxVal = 3
)

// State is the symbolic store state: one total-function dictionary whose
// per-key binding carries an explicit presence bit, so the range scan can
// fold membership arithmetically instead of forking per key.
type State struct {
	// KV maps (key) -> {present, val}: the ordered map's bindings.
	KV *symx.Dict
}

// Dicts returns the dictionaries in comparison order (the spec layer's
// State contract).
func (s *State) Dicts() []*symx.Dict { return []*symx.Dict{s.KV} }

// NewState builds the symbolic state with unconstrained initial content:
// every key starts arbitrarily present or absent with an arbitrary
// bounded value.
func NewState(c *symx.Context) *State {
	return &State{
		KV: symx.NewDict("kv", func(c *symx.Context, tag string) *symx.Struct {
			present := c.Var(tag+".present", sym.BoolSort, symx.KindState)
			val := c.Var(tag+".val", sym.IntSort, symx.KindState)
			c.Assume(sym.And(sym.Ge(val, sym.Int(0)), sym.Le(val, sym.Int(MaxVal))))
			return symx.NewStruct("present", present, "val", val)
		}),
	}
}

func errRet(errno int64) []*sym.Expr {
	return []*sym.Expr{sym.Int(-errno), sym.Int(0), sym.Int(0), sym.Int(0), sym.Int(0)}
}

func okRet(code, i1, data *sym.Expr) []*sym.Expr {
	return []*sym.Expr{code, i1, sym.Int(0), sym.Int(0), data}
}

func st(x *spec.Exec) *State { return x.S.(*State) }

func keyArg(name string) spec.ArgSpec {
	return spec.ArgSpec{Name: name, Sort: sym.IntSort, Min: 0, Max: NKeys - 1, Bounded: true}
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
			{Name: "val", Sort: sym.IntSort, Min: 0, Max: MaxVal, Bounded: true}},
		Exec: func(x *spec.Exec, slot string, a []*sym.Expr) []*sym.Expr {
			s, key, val := st(x), a[0], a[1]
			s.KV.Set(x.C, symx.K(key), symx.NewStruct("present", sym.True, "val", val))
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
			s.KV.Set(x.C, symx.K(key), symx.NewStruct("present", sym.False, "val", sym.Int(0)))
			return okRet(sym.Int(0), sym.Int(0), sym.Int(0))
		},
	}
}

// scanWeight is the per-key positional weight of the scan fingerprint:
// strictly larger than MaxVal+1, so the fingerprint is an injective
// encoding of the scanned window's bindings (which keys are present, and
// each present key's value).
const scanWeight = MaxVal + 2

func opScan() *spec.Op {
	return &spec.Op{
		Name: "scan",
		Args: []spec.ArgSpec{keyArg("lo"), keyArg("hi")},
		Exec: func(x *spec.Exec, slot string, a []*sym.Expr) []*sym.Expr {
			s, lo, hi := st(x), a[0], a[1]
			// Fold the window arithmetically over the (bounded, ordered)
			// key domain: no branching, so scans stay cheap to analyze.
			// count is the number of live bindings in [lo, hi]; fp is the
			// injective fingerprint Σ in-window (val+1)·scanWeight^key —
			// together they expose exactly the window's content, which is
			// what makes in-range mutations order-observable.
			count, fp := sym.Int(0), sym.Int(0)
			weight := int64(1)
			for k := int64(0); k < NKeys; k++ {
				v := s.KV.GetFunc(x.C, symx.K(sym.Int(k)))
				in := sym.And(
					sym.Le(lo, sym.Int(k)), sym.Le(sym.Int(k), hi), v.Get("present"))
				count = sym.Add(count, sym.Ite(in, sym.Int(1), sym.Int(0)))
				fp = sym.Add(fp, sym.Ite(in,
					sym.Mul(sym.Add(v.Get("val"), sym.Int(1)), sym.Int(weight)), sym.Int(0)))
				weight *= scanWeight
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

func (kvSpec) NewState(c *symx.Context, cfg spec.Config) spec.State {
	return NewState(c)
}

func (kvSpec) Concretizer() spec.Concretizer { return concretizer{} }

func (kvSpec) Impls() []spec.Impl {
	return []spec.Impl{{Name: "memkv", New: func() kernel.Kernel { return memkv.New() }}}
}

// concretizer mines store bindings from the witness.
type concretizer struct{}

// FixupCall is a no-op: the kv interface has no per-call spec flags.
func (concretizer) FixupCall(cfg spec.Config, call *kernel.Call) {}

// PlanSetup plans the store dictionary's probes of one path. The function
// it returns rebuilds the concrete store: every key the witness probed as
// present becomes a seeded binding with the probed value.
func (concretizer) PlanSetup(a, b spec.State) func(sym.Model) kernel.Setup {
	kv := spec.PlanProbes(a.(*State).KV, b.(*State).KV)
	return func(m sym.Model) kernel.Setup {
		var s kernel.Setup
		seen := map[int64]bool{}
		for _, p := range kv.Eval(m) {
			if !p.Bool("present") {
				continue
			}
			key := spec.Clamp(p.Key[0], 0, NKeys-1)
			if seen[key] {
				continue
			}
			seen[key] = true
			s.KVs = append(s.KVs, kernel.SetupKV{
				Key: key, Val: spec.Clamp(p.Field("val"), 0, MaxVal)})
		}
		sort.Slice(s.KVs, func(i, j int) bool { return s.KVs[i].Key < s.KVs[j].Key })
		return s
	}
}
