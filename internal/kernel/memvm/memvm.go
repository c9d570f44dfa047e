// Package memvm is the reference in-memory implementation of the vm spec
// (internal/vmspec): per-process anonymous address spaces built on traced
// mtrace cells so the standard MTRACE runner can check conflict-freedom.
//
// Cell placement follows the RadixVM design point the paper's §5.2
// evaluation targets: each (proc, page) has its own mapping-descriptor
// cell and content cell — no address-space-wide lock, no shared VMA-tree
// version — so operations on non-overlapping regions touch disjoint
// cells and run conflict-free, exactly the executions the spec says
// commute. The one deliberately shared structure is the address
// allocator: a non-MAP_FIXED mmap scans the mapping cells from page 0
// for a free slot (the lowest-address rule the spec models), so two such
// mmaps in one process contend on the low pages — matching the spec-level
// verdict that the kernel's address choice does not commute.
package memvm

import (
	"repro/internal/kernel"
	"repro/internal/mtrace"
)

// pageCells is one (proc, page)'s state: a mapping descriptor (0 =
// unmapped, 1 = mapped read-only, 2 = mapped writable) and the page's
// content.
type pageCells struct {
	m *mtrace.Cell
	v *mtrace.Cell
}

const (
	unmapped = 0
	mappedRO = 1
	mappedRW = 2

	// maxPage mirrors the spec's page bound (vmspec.MaxPage; duplicated
	// here because the spec package imports this one); the allocator
	// scans this range.
	maxPage = 3
)

// Kern is the vm-spec reference implementation.
type Kern struct {
	mem   *mtrace.Memory
	pages [2]map[int64]*pageCells
}

var _ kernel.Kernel = (*Kern)(nil)

// New returns a fresh implementation instance with two empty address
// spaces.
func New() *Kern {
	k := &Kern{mem: mtrace.NewMemory()}
	for i := range k.pages {
		k.pages[i] = map[int64]*pageCells{}
	}
	return k
}

// Name identifies the implementation.
func (k *Kern) Name() string { return "memvm" }

// Memory returns the traced memory.
func (k *Kern) Memory() *mtrace.Memory { return k.mem }

// page returns (creating on first use) the cells of one (proc, page).
// Creation allocates cells but records no accesses, and goes through the
// memory so that a replayed run re-creates pages exactly like a fresh
// kernel would.
func (k *Kern) page(proc int, page int64) *pageCells {
	p, ok := k.pages[proc][page]
	if !ok {
		p = &pageCells{
			m: k.mem.NewCellf(unmapped, "proc%d.vmap[%d]", proc, page),
			v: k.mem.NewCellf(0, "proc%d.vmem[%d]", proc, page),
		}
		mtrace.SetKey(k.mem, k.pages[proc], page, p)
	}
	return p
}

// Apply seeds the address spaces from the setup (untraced); fields of
// other interfaces are ignored.
func (k *Kern) Apply(s kernel.Setup) {
	for _, sv := range s.VMAs {
		p := k.page(sv.Proc, sv.Page)
		if sv.Writable {
			p.m.Poke(mappedRW)
		} else {
			p.m.Poke(mappedRO)
		}
		p.v.Poke(sv.Val)
	}
}

func mapVal(wr bool) int64 {
	if wr {
		return mappedRW
	}
	return mappedRO
}

// Exec performs one VM operation on the given simulated core.
func (k *Kern) Exec(core int, c kernel.Call) kernel.Result {
	proc := c.Proc
	switch c.Op {
	case "mmap":
		addr := c.Arg("page")
		if !c.ArgBool("fixed") {
			// Lowest free page: the scan reads every mapping cell below
			// the chosen address, the sharing that mirrors the spec's
			// non-commutative address selection.
			addr = -1
			for pg := int64(0); pg < maxPage; pg++ {
				if k.page(proc, pg).m.Load(core) == unmapped {
					addr = pg
					break
				}
			}
			if addr < 0 {
				return kernel.Errno(kernel.ENOMEM)
			}
		}
		p := k.page(proc, addr)
		p.m.Store(core, mapVal(c.ArgBool("wr")))
		p.v.Store(core, 0)
		return kernel.Result{Code: 0, V1: addr}
	case "munmap":
		k.page(proc, c.Arg("page")).m.Store(core, unmapped)
		return kernel.Result{Code: 0}
	case "mprotect":
		p := k.page(proc, c.Arg("page"))
		if p.m.Load(core) == unmapped {
			return kernel.Errno(kernel.ENOMEM)
		}
		p.m.Store(core, mapVal(c.ArgBool("wr")))
		return kernel.Result{Code: 0}
	case "memread":
		p := k.page(proc, c.Arg("page"))
		if p.m.Load(core) == unmapped {
			return kernel.Errno(kernel.ESIGSEGV)
		}
		return kernel.Result{Code: 0, Data: p.v.Load(core)}
	case "memwrite":
		p := k.page(proc, c.Arg("page"))
		if p.m.Load(core) != mappedRW {
			return kernel.Errno(kernel.ESIGSEGV)
		}
		p.v.Store(core, c.Arg("val"))
		return kernel.Result{Code: 0}
	}
	panic("memvm: unknown op " + c.Op)
}
