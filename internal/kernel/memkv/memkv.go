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
	"fmt"
	"slices"
	"strconv"
	"strings"

	"repro/internal/kernel"
	"repro/internal/mtrace"
)

// Setup is the kv spec's initial state: the keys bound before the test
// runs.
type Setup struct {
	KVs []SetupKV
}

// SetupKV binds one key.
type SetupKV struct {
	Key int64
	Val int64
}

// Fingerprint implements kernel.Setup.
func (s *Setup) Fingerprint() string { return string(s.AppendFingerprint(nil)) }

// AppendFingerprint implements kernel.Setup.
func (s *Setup) AppendFingerprint(dst []byte) []byte {
	for _, kv := range s.KVs {
		dst = strconv.AppendInt(append(dst, 'K'), kv.Key, 10)
		dst = append(strconv.AppendInt(append(dst, '='), kv.Val, 10), ';')
	}
	return dst
}

// Clone implements kernel.Setup.
func (s *Setup) Clone() kernel.Setup { return &Setup{KVs: slices.Clone(s.KVs)} }

// Admit implements kernel.Setup: a setup binds at most kernel.MaxExtent
// keys, each once.
func (s *Setup) Admit() error {
	var a kernel.Admission
	kernel.Rows(&a, "key", s.KVs, func(kv SetupKV) int64 { return kv.Key })
	return a.Err()
}

// String implements kernel.Setup.
func (s *Setup) String() string {
	var b strings.Builder
	for _, kv := range s.KVs {
		fmt.Fprintf(&b, "kv %d = %d\n", kv.Key, kv.Val)
	}
	return strings.TrimSuffix(b.String(), "\n")
}

// binding is one key's cells: presence (0/1) and value.
type binding struct {
	present *mtrace.Cell
	val     *mtrace.Cell
}

// The kv spec's bounds, declared here because the spec package imports
// this one: keys are 0..NKeys-1, values 0..MaxVal, and a scan's fingerprint
// weighs each key ScanWeight times the key before it (see kvspec).
const (
	NKeys      = 3
	MaxVal     = 3
	ScanWeight = MaxVal + 2
)

// Kern is the kv-spec reference implementation.
type Kern struct {
	mem  *mtrace.Memory
	keys map[int64]*binding
}

// New returns a fresh, empty store instance.
func New() *Kern {
	return &Kern{mem: mtrace.NewMemory(), keys: map[int64]*binding{}}
}

// Name identifies the implementation.
func (k *Kern) Name() string { return "memkv" }

// Memory returns the traced memory.
func (k *Kern) Memory() *mtrace.Memory { return k.mem }

// binding returns one key's cells, building them, untraced, on first use
// and keeping them: every access loads the presence cell, and both cells
// are born 0, the value a reset returns them to, so a kept binding is a
// fresh one to every later setup.
func (k *Kern) binding(key int64) *binding {
	b, ok := k.keys[key]
	if !ok {
		b = &binding{
			present: k.mem.NewCellf(0, "kv[%d].present", key),
			val:     k.mem.NewCellf(0, "kv[%d].val", key),
		}
		k.keys[key] = b
	}
	return b
}

// Apply seeds the store bindings from a Setup (untraced).
func (k *Kern) Apply(s kernel.Setup) {
	for _, kv := range s.(*Setup).KVs {
		b := k.binding(kv.Key)
		b.present.Poke(1)
		b.val.Poke(kv.Val)
	}
}

// ops maps each store operation to its body.
var ops = map[string]func(k *Kern, core int, c kernel.Call) kernel.Result{
	"get": func(k *Kern, core int, c kernel.Call) kernel.Result {
		b := k.binding(c.Arg("key"))
		if b.present.Load(core) == 0 {
			return kernel.Errno(kernel.ENOENT)
		}
		return kernel.Result{Code: 0, Data: b.val.Load(core)}
	},
	"put": func(k *Kern, core int, c kernel.Call) kernel.Result {
		b := k.binding(c.Arg("key"))
		b.present.Store(core, 1)
		b.val.Store(core, c.Arg("val"))
		return kernel.Result{Code: 0}
	},
	"delete": func(k *Kern, core int, c kernel.Call) kernel.Result {
		b := k.binding(c.Arg("key"))
		if b.present.Load(core) == 0 {
			return kernel.Errno(kernel.ENOENT)
		}
		b.present.Store(core, 0)
		b.val.Store(core, 0)
		return kernel.Result{Code: 0}
	},
	"scan": func(k *Kern, core int, c kernel.Call) kernel.Result {
		lo, hi := c.Arg("lo"), c.Arg("hi")
		var count, fp, weight int64 = 0, 0, 1
		for key := int64(0); key < NKeys; key++ {
			if lo <= key && key <= hi {
				b := k.binding(key)
				if b.present.Load(core) != 0 {
					count++
					fp += (b.val.Load(core) + 1) * weight
				}
			}
			weight *= ScanWeight
		}
		return kernel.Result{Code: count, V1: fp}
	},
}

var refuse = kernel.RegisterSetup("kv", func() kernel.Setup { return new(Setup) }, ops)

// Refuse implements kernel.Kernel.
func (k *Kern) Refuse(tc *kernel.TestCase) error { return refuse(tc) }

// Exec performs one store operation on the given simulated core.
func (k *Kern) Exec(core int, c kernel.Call) kernel.Result { return ops[c.Op](k, core, c) }
