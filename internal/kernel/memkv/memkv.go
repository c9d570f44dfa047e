// Package memkv is the reference in-memory implementation of the kv spec
// (internal/kvspec): an ordered key-value store built on traced mtrace
// cells so the standard MTRACE runner can check conflict-freedom.
//
// Cell placement follows the partitioned-map design the rule predicts:
// every key owns a presence cell and a value cell (think one B-tree leaf
// — or hash bucket — per key, with no shared root version), so point
// operations on distinct keys touch disjoint cells and run conflict-free.
// A scan walks the key domain in order and reads the presence cell of
// every key in its window (and the value cell of the live ones), so a
// mutation inside the scanned range conflicts with the scan — exactly the
// pairs the spec says do not commute — while mutations outside the window
// share nothing with it.
package memkv

import (
	"repro/internal/kernel"
	"repro/internal/mtrace"
)

// binding is one key's cells: presence (0/1) and value.
type binding struct {
	present *mtrace.Cell
	val     *mtrace.Cell
}

// nKeys and maxVal mirror the spec's bounds (kvspec.NKeys/MaxVal;
// duplicated here because the spec package imports this one).
const (
	nKeys      = 3
	maxVal     = 3
	scanWeight = maxVal + 2
)

// Kern is the kv-spec reference implementation.
type Kern struct {
	mem  *mtrace.Memory
	keys map[int64]*binding
}

var _ kernel.Kernel = (*Kern)(nil)

// New returns a fresh, empty store instance.
func New() *Kern {
	return &Kern{mem: mtrace.NewMemory(), keys: map[int64]*binding{}}
}

// Name identifies the implementation.
func (k *Kern) Name() string { return "memkv" }

// Memory returns the traced memory.
func (k *Kern) Memory() *mtrace.Memory { return k.mem }

// binding returns (creating on first use) one key's cells. Creation
// allocates cells but records no accesses, and goes through the memory so
// that a replayed run re-creates bindings exactly like a fresh kernel would.
func (k *Kern) binding(key int64) *binding {
	b, ok := k.keys[key]
	if !ok {
		b = &binding{
			present: k.mem.NewCellf(0, "kv[%d].present", key),
			val:     k.mem.NewCellf(0, "kv[%d].val", key),
		}
		mtrace.SetKey(k.mem, k.keys, key, b)
	}
	return b
}

// Apply seeds the store bindings from the setup (untraced); fields of
// other interfaces are ignored.
func (k *Kern) Apply(s kernel.Setup) {
	for _, kv := range s.KVs {
		b := k.binding(kv.Key)
		b.present.Poke(1)
		b.val.Poke(kv.Val)
	}
}

// Exec performs one store operation on the given simulated core.
func (k *Kern) Exec(core int, c kernel.Call) kernel.Result {
	switch c.Op {
	case "get":
		b := k.binding(c.Arg("key"))
		if b.present.Load(core) == 0 {
			return kernel.Errno(kernel.ENOENT)
		}
		return kernel.Result{Code: 0, Data: b.val.Load(core)}
	case "put":
		b := k.binding(c.Arg("key"))
		b.present.Store(core, 1)
		b.val.Store(core, c.Arg("val"))
		return kernel.Result{Code: 0}
	case "delete":
		b := k.binding(c.Arg("key"))
		if b.present.Load(core) == 0 {
			return kernel.Errno(kernel.ENOENT)
		}
		b.present.Store(core, 0)
		b.val.Store(core, 0)
		return kernel.Result{Code: 0}
	case "scan":
		lo, hi := c.Arg("lo"), c.Arg("hi")
		var count, fp, weight int64 = 0, 0, 1
		for key := int64(0); key < nKeys; key++ {
			if lo <= key && key <= hi {
				b := k.binding(key)
				if b.present.Load(core) != 0 {
					count++
					fp += (b.val.Load(core) + 1) * weight
				}
			}
			weight *= scanWeight
		}
		return kernel.Result{Code: count, V1: fp}
	}
	panic("memkv: unknown op " + c.Op)
}
