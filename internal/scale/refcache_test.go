package scale

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/mtrace"
)

// counter is what the lazy Refcache and its eager reference share.
type counter interface {
	Inc(core int, delta int64)
	Read(core int) int64
	Peek() int64
	Poke(v int64)
}

// eagerRefcache is the Refcache this package had before a core's delta
// cell was born at its first touch: every cell, with its name, built by the
// constructor. It is the reference the lazy one must be indistinguishable
// from through mtrace.
type eagerRefcache struct {
	base   *mtrace.Cell
	deltas [NCores]*mtrace.Cell
}

func newEagerRefcache(mem *mtrace.Memory, name string, init int64) *eagerRefcache {
	r := &eagerRefcache{base: mem.NewCell(name+".base", init)}
	for i := range r.deltas {
		r.deltas[i] = mem.NewCellf(0, "%s.delta[%d]", name, i)
	}
	return r
}

func (r *eagerRefcache) Inc(core int, delta int64) { r.deltas[core].Add(core, delta) }

func (r *eagerRefcache) Read(core int) int64 {
	v := r.base.Load(core)
	for _, d := range r.deltas {
		v += d.Load(core)
	}
	return v
}

func (r *eagerRefcache) Peek() int64 {
	v := r.base.Peek()
	for _, d := range r.deltas {
		v += d.Peek()
	}
	return v
}

func (r *eagerRefcache) Poke(v int64) {
	r.base.Poke(v)
	for _, d := range r.deltas {
		d.Poke(0)
	}
}

// namedAccess is one logged access with the cell as its name: cell
// identities differ between two memories (and ids between a lazy and an
// eager one), names do not.
type namedAccess struct {
	Cell  string
	Core  int
	Write bool
}

func namedAccesses(mem *mtrace.Memory) []namedAccess {
	var out []namedAccess
	for _, a := range mem.Accesses() {
		out = append(out, namedAccess{a.Cell.Name(), a.Core, a.Write})
	}
	return out
}

// TestLazyRefcacheMatchesEager drives a lazy and an eager set of counters,
// each on a memory of its own, through the same random sequence of
// Inc/Read/Peek/Poke on random cores, cut into traced regions and
// interleaved with Snapshot/Reset/Pop. Every value read, every region's
// verdict, conflict report (names, writers, readers) and logged access
// sequence must be equal: when a delta cell is born is not observable.
func TestLazyRefcacheMatchesEager(t *testing.T) {
	// Mostly the checker's two cores, so regions conflict often; the rest
	// of the range, so the lazy slice grows in every order.
	pickCore := func(r *rand.Rand) int {
		if r.Intn(4) > 0 {
			return r.Intn(2)
		}
		return r.Intn(NCores)
	}
	for seed := int64(0); seed < 200; seed++ {
		r := rand.New(rand.NewSource(seed))
		lazyMem, eagerMem := mtrace.NewMemory(), mtrace.NewMemory()
		lazyMem.LogAccesses(true)
		eagerMem.LogAccesses(true)
		var lazy, eager []counter
		for i := 0; i < 1+r.Intn(3); i++ {
			name, init := fmt.Sprintf("inode[%d].nlink", i), int64(r.Intn(3))
			lazy = append(lazy, NewRefcache(lazyMem, name, init))
			eager = append(eager, newEagerRefcache(eagerMem, name, init))
		}
		endRegion := func(step int) {
			lazyMem.Stop()
			eagerMem.Stop()
			if l, e := lazyMem.ConflictFree(), eagerMem.ConflictFree(); l != e {
				t.Fatalf("seed %d step %d: ConflictFree lazy %v, eager %v", seed, step, l, e)
			}
			if l, e := lazyMem.Conflicts(), eagerMem.Conflicts(); !reflect.DeepEqual(l, e) {
				t.Fatalf("seed %d step %d: conflicts\n lazy  %v\n eager %v", seed, step, l, e)
			}
			if l, e := namedAccesses(lazyMem), namedAccesses(eagerMem); !reflect.DeepEqual(l, e) {
				t.Fatalf("seed %d step %d: access logs differ (%d lazy, %d eager accesses)", seed, step, len(l), len(e))
			}
		}
		depth := 0
		lazyMem.Start()
		eagerMem.Start()
		for step := 0; step < 60; step++ {
			i := r.Intn(len(lazy))
			switch op := r.Intn(12); {
			case op < 4:
				core, delta := pickCore(r), int64(r.Intn(5)-2)
				lazy[i].Inc(core, delta)
				eager[i].Inc(core, delta)
			case op < 6:
				core := pickCore(r)
				if l, e := lazy[i].Read(core), eager[i].Read(core); l != e {
					t.Fatalf("seed %d step %d: Read lazy %d, eager %d", seed, step, l, e)
				}
			case op == 6:
				v := int64(r.Intn(4))
				lazy[i].Poke(v)
				eager[i].Poke(v)
			case op == 7:
				endRegion(step)
				lazyMem.Start()
				eagerMem.Start()
			case op == 8:
				lazyMem.Snapshot()
				eagerMem.Snapshot()
				depth++
			case op == 9 && depth > 0:
				// Reset is untraced by design: close the region around it.
				endRegion(step)
				lazyMem.Reset()
				eagerMem.Reset()
				lazyMem.Start()
				eagerMem.Start()
			case op == 10 && depth > 0:
				lazyMem.Pop()
				eagerMem.Pop()
				depth--
			}
			for i := range lazy {
				if l, e := lazy[i].Peek(), eager[i].Peek(); l != e {
					t.Fatalf("seed %d step %d: counter %d Peek lazy %d, eager %d", seed, step, i, l, e)
				}
			}
		}
		endRegion(60)
	}
}

// TestNewRefcacheIsOneCell pins construction to the base cell (the counter,
// the cell and its name): a core's delta is born at its first touch.
func TestNewRefcacheIsOneCell(t *testing.T) {
	mem := mtrace.NewMemory()
	if n := testing.AllocsPerRun(10, func() { _ = NewRefcache(mem, "inode[1].nlink", 0) }); n > 3 {
		t.Errorf("NewRefcache performs %.0f allocations, want at most 3", n)
	}
}
