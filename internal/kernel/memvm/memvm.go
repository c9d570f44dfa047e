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
	"fmt"
	"slices"
	"strconv"
	"strings"

	"repro/internal/kernel"
	"repro/internal/mtrace"
)

// Setup is the vm spec's initial state: the pages mapped before the test
// runs.
type Setup struct {
	VMAs []SetupVMA
}

// SetupVMA maps one anonymous page of a process's address space.
type SetupVMA struct {
	Proc     int
	Page     int64
	Writable bool
	// Val is the page's initial content token.
	Val int64
}

// Fingerprint implements kernel.Setup.
func (s *Setup) Fingerprint() string { return string(s.AppendFingerprint(nil)) }

// AppendFingerprint implements kernel.Setup. A mapping renders as the posix
// spec's anonymous mapping does, file fields zero.
func (s *Setup) AppendFingerprint(dst []byte) []byte {
	for _, v := range s.VMAs {
		dst = strconv.AppendInt(append(dst, 'V'), int64(v.Proc), 10)
		dst = strconv.AppendInt(append(dst, ','), v.Page, 10)
		dst = strconv.AppendInt(append(dst, ",atrue,v"...), v.Val, 10)
		dst = strconv.AppendBool(append(dst, ",w"...), v.Writable)
		dst = append(dst, ",i0,o0;"...)
	}
	return dst
}

// Clone implements kernel.Setup.
func (s *Setup) Clone() kernel.Setup { return &Setup{VMAs: slices.Clone(s.VMAs)} }

// Admit implements kernel.Setup: a mapping names process 0 or 1 and a page
// within kernel.MaxExtent, and a setup maps at most kernel.MaxExtent pages,
// each once.
func (s *Setup) Admit() error {
	var a kernel.Admission
	for _, v := range s.VMAs {
		a.Proc("a setup mapping", v.Proc)
		a.Within("mapped page", 0, v.Page, kernel.MaxExtent)
	}
	kernel.Rows(&a, "mapped page (process, page)", s.VMAs, func(v SetupVMA) [2]int64 { return [2]int64{int64(v.Proc), v.Page} })
	return a.Err()
}

// String implements kernel.Setup, in the posix spec's rendering of an
// anonymous mapping.
func (s *Setup) String() string {
	var b strings.Builder
	for _, v := range s.VMAs {
		fmt.Fprintf(&b, "vma p%d:page%d anon=true wr=%v inode=0 foff=0 val=%d\n", v.Proc, v.Page, v.Writable, v.Val)
	}
	return strings.TrimSuffix(b.String(), "\n")
}

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
)

// Kern is the vm-spec reference implementation.
type Kern struct {
	mem   *mtrace.Memory
	pages [2]map[int64]*pageCells
}

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

// page returns the cells of one (proc, page), building them, untraced, on
// first use and keeping them: every access loads the mapping cell, and both
// cells are born 0, the value a reset returns them to, so a kept page is a
// fresh one to every later setup.
func (k *Kern) page(proc int, page int64) *pageCells {
	p, ok := k.pages[proc][page]
	if !ok {
		p = &pageCells{
			m: k.mem.NewCellf(unmapped, "proc%d.vmap[%d]", proc, page),
			v: k.mem.NewCellf(0, "proc%d.vmem[%d]", proc, page),
		}
		k.pages[proc][page] = p
	}
	return p
}

// Apply seeds the address spaces from a Setup (untraced).
func (k *Kern) Apply(s kernel.Setup) {
	for _, sv := range s.(*Setup).VMAs {
		p := k.page(sv.Proc, sv.Page)
		p.m.Poke(mapVal(sv.Writable))
		p.v.Poke(sv.Val)
	}
}

func mapVal(wr bool) int64 {
	if wr {
		return mappedRW
	}
	return mappedRO
}

// ops maps each VM operation to its body.
var ops = map[string]func(k *Kern, core int, c kernel.Call) kernel.Result{
	"mmap": func(k *Kern, core int, c kernel.Call) kernel.Result {
		addr := c.Arg("page")
		if !c.ArgBool("fixed") {
			// Lowest free page: the scan reads every mapping cell below
			// the chosen address, the sharing that mirrors the spec's
			// non-commutative address selection.
			addr = -1
			for pg := int64(0); pg < kernel.MaxPage; pg++ {
				if k.page(c.Proc, pg).m.Load(core) == unmapped {
					addr = pg
					break
				}
			}
			if addr < 0 {
				return kernel.Errno(kernel.ENOMEM)
			}
		}
		p := k.page(c.Proc, addr)
		p.m.Store(core, mapVal(c.ArgBool("wr")))
		p.v.Store(core, 0)
		return kernel.Result{Code: 0, V1: addr}
	},
	"munmap": func(k *Kern, core int, c kernel.Call) kernel.Result {
		k.page(c.Proc, c.Arg("page")).m.Store(core, unmapped)
		return kernel.Result{Code: 0}
	},
	"mprotect": func(k *Kern, core int, c kernel.Call) kernel.Result {
		p := k.page(c.Proc, c.Arg("page"))
		if p.m.Load(core) == unmapped {
			return kernel.Errno(kernel.ENOMEM)
		}
		p.m.Store(core, mapVal(c.ArgBool("wr")))
		return kernel.Result{Code: 0}
	},
	"memread": func(k *Kern, core int, c kernel.Call) kernel.Result {
		p := k.page(c.Proc, c.Arg("page"))
		if p.m.Load(core) == unmapped {
			return kernel.Errno(kernel.ESIGSEGV)
		}
		return kernel.Result{Code: 0, Data: p.v.Load(core)}
	},
	"memwrite": func(k *Kern, core int, c kernel.Call) kernel.Result {
		p := k.page(c.Proc, c.Arg("page"))
		if p.m.Load(core) != mappedRW {
			return kernel.Errno(kernel.ESIGSEGV)
		}
		p.v.Store(core, c.Arg("val"))
		return kernel.Result{Code: 0}
	},
}

var refuse = kernel.RegisterSetup("vm", func() kernel.Setup { return new(Setup) }, ops)

// Refuse implements kernel.Kernel.
func (k *Kern) Refuse(tc *kernel.TestCase) error { return refuse(tc) }

// Exec performs one VM operation on the given simulated core.
func (k *Kern) Exec(core int, c kernel.Call) kernel.Result { return ops[c.Op](k, core, c) }
