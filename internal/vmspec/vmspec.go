// Package vmspec is a symbolic model of the paper's §5.2 virtual-memory
// interface, registered as the "vm" spec: mmap, munmap, mprotect, memread
// and memwrite over per-process address spaces of anonymous pages. It is
// the third interface the pipeline analyzes and it reproduces, at page
// granularity, the two sides of the paper's VM result:
//
//   - Operations on non-overlapping regions commute: every op other than
//     a non-fixed mmap names its page explicitly, so two ops touching
//     different (proc, page) locations leave no observable trace of their
//     order — exactly the executions RadixVM makes conflict-free.
//   - The kernel's address-selection rule breaks commutativity: a mmap
//     without MAP_FIXED asks the kernel to choose the address, and the
//     returned address makes the choice observable. Real kernels choose
//     deterministically (the lowest — or highest — free region), so two
//     such mmaps in one process return swapped addresses across the two
//     orders and never commute, the address-space analog of the lowest-FD
//     rule (§4). MAP_FIXED is the commutative refinement: the application
//     names the page, the choice disappears, and non-overlapping mmaps
//     commute again.
//
// The model keeps only anonymous memory (file-backed mappings belong to
// the POSIX spec's universe, where mmap interacts with inodes); that is
// the smallest state that still exhibits the §5.2 structure. The
// reference in-memory implementation is internal/kernel/memvm, checked by
// the standard MTRACE runner.
package vmspec

import (
	"cmp"
	"slices"

	"repro/internal/kernel"
	"repro/internal/kernel/memvm"
	"repro/internal/spec"
	"repro/internal/sym"
	"repro/internal/symx"
)

// dataSort is the uninterpreted sort of one page of memory content:
// semantics only ever compare pages for equality.
var dataSort = sym.Uninterpreted("VMData")

// dataZero is the distinguished zero-filled page: fresh anonymous
// mappings read as zero.
var dataZero = sym.Const(dataSort, 0)

// state is the symbolic VM state. Its pages are 0..kernel.MaxPage-1, as
// in the POSIX model, and memvm scans the same range: three pages leave
// room for every distinct region a pair of calls can mention.
type state struct {
	// VMA maps (proc, page) -> {wr}: per-process page mappings; proc is a
	// boolean expression (two processes), wr the write permission.
	VMA *symx.Dict
	// Mem maps (proc, page) -> {val}: page contents, a total-function
	// view (the content of a mapped page always resolves).
	Mem *symx.Dict
	// dicts is Dicts' slice.
	dicts [2]*symx.Dict
}

// Dicts returns the dictionaries in comparison order (the spec layer's
// State contract); neither invariant closure probes the other, so any
// order works — mappings precede contents for readability.
func (s *state) Dicts() []*symx.Dict { return s.dicts[:] }

func errRet(errno int64) []*sym.Expr {
	return []*sym.Expr{sym.Int(-errno), sym.Int(0), sym.Int(0), sym.Int(0), dataZero}
}

func okRet(code, i1, data *sym.Expr) []*sym.Expr {
	return []*sym.Expr{code, i1, sym.Int(0), sym.Int(0), data}
}

func st(x *spec.Exec) *state { return x.S.(*state) }

func procArg() spec.ArgSpec { return spec.ArgSpec{Name: "proc", Sort: sym.BoolSort} }

func pageArg() spec.ArgSpec {
	return spec.ArgSpec{Name: "page", Sort: sym.IntSort, Min: 0, Max: kernel.MaxPage - 1, Bounded: true}
}

// ops is the op table: the five modeled operations in canonical (matrix)
// order, built once per process.
var ops = []*spec.Op{opMmap(), opMunmap(), opMprotect(), opMemread(), opMemwrite()}

func opMmap() *spec.Op {
	return &spec.Op{
		Name: "mmap",
		Args: []spec.ArgSpec{
			procArg(), pageArg(),
			{Name: "fixed", Sort: sym.BoolSort},
			{Name: "wr", Sort: sym.BoolSort},
		},
		Exec: func(x *spec.Exec, slot string, a []*sym.Expr) []*sym.Expr {
			s := st(x)
			proc, page, fixed, wr := a[0], a[1], a[2], a[3]
			var addr *sym.Expr
			if x.C.Branch(fixed) {
				addr = page // MAP_FIXED replaces any existing mapping
			} else {
				// The kernel chooses: lowest free page, the address-space
				// analog of the lowest-FD rule. The scan makes the
				// allocation order observable through the returned
				// address, which is what destroys commutativity (§5.2).
				addr = nil
				for p := int64(0); p < kernel.MaxPage; p++ {
					if !s.VMA.Contains(x.C, symx.K(proc, sym.Int(p))) {
						addr = sym.Int(p)
						break
					}
				}
				if addr == nil {
					return errRet(kernel.ENOMEM) // address space exhausted
				}
			}
			s.VMA.Set(x.C, symx.K(proc, addr), symx.NewStruct(x.C, "wr", wr))
			s.Mem.Set(x.C, symx.K(proc, addr), symx.NewStruct(x.C, "val", dataZero))
			return okRet(sym.Int(0), addr, dataZero)
		},
	}
}

func opMunmap() *spec.Op {
	return &spec.Op{
		Name: "munmap",
		Args: []spec.ArgSpec{procArg(), pageArg()},
		Exec: func(x *spec.Exec, slot string, a []*sym.Expr) []*sym.Expr {
			s, proc, page := st(x), a[0], a[1]
			s.VMA.Del(x.C, symx.K(proc, page))
			s.Mem.Del(x.C, symx.K(proc, page))
			return okRet(sym.Int(0), sym.Int(0), dataZero)
		},
	}
}

func opMprotect() *spec.Op {
	return &spec.Op{
		Name: "mprotect",
		Args: []spec.ArgSpec{procArg(), pageArg(), {Name: "wr", Sort: sym.BoolSort}},
		Exec: func(x *spec.Exec, slot string, a []*sym.Expr) []*sym.Expr {
			s, proc, page, wr := st(x), a[0], a[1], a[2]
			if !s.VMA.Contains(x.C, symx.K(proc, page)) {
				return errRet(kernel.ENOMEM)
			}
			v := s.VMA.Get(x.C, symx.K(proc, page))
			s.VMA.Set(x.C, symx.K(proc, page), v.With(x.C, "wr", wr))
			return okRet(sym.Int(0), sym.Int(0), dataZero)
		},
	}
}

func opMemread() *spec.Op {
	return &spec.Op{
		Name: "memread",
		Args: []spec.ArgSpec{procArg(), pageArg()},
		Exec: func(x *spec.Exec, slot string, a []*sym.Expr) []*sym.Expr {
			s, proc, page := st(x), a[0], a[1]
			if !s.VMA.Contains(x.C, symx.K(proc, page)) {
				return errRet(kernel.ESIGSEGV)
			}
			v := s.Mem.GetFunc(x.C, symx.K(proc, page))
			return okRet(sym.Int(0), sym.Int(0), v.Get("val"))
		},
	}
}

func opMemwrite() *spec.Op {
	return &spec.Op{
		Name: "memwrite",
		Args: []spec.ArgSpec{procArg(), pageArg(), {Name: "val", Sort: dataSort}},
		Exec: func(x *spec.Exec, slot string, a []*sym.Expr) []*sym.Expr {
			s, proc, page, val := st(x), a[0], a[1], a[2]
			if !s.VMA.Contains(x.C, symx.K(proc, page)) {
				return errRet(kernel.ESIGSEGV)
			}
			v := s.VMA.Get(x.C, symx.K(proc, page))
			if !x.C.Branch(v.Get("wr")) {
				return errRet(kernel.ESIGSEGV) // write to a read-only mapping
			}
			s.Mem.Set(x.C, symx.K(proc, page), symx.NewStruct(x.C, "val", val))
			return okRet(sym.Int(0), sym.Int(0), dataZero)
		},
	}
}

// vmSpec packages the model as the registered "vm" spec.
type vmSpec struct{}

// Spec is the VM model as a pluggable pipeline spec.
var Spec spec.Spec = vmSpec{}

func init() { spec.Register(Spec) }

func (vmSpec) Name() string { return "vm" }

func (vmSpec) Ops() []*spec.Op { return ops }

func (vmSpec) Sets() map[string][]string {
	return map[string][]string{
		"map": {"mmap", "munmap", "mprotect"},
		"mem": {"memread", "memwrite"},
	}
}

// DefaultSet: the VM universe is small, so default to all of it.
func (vmSpec) DefaultSet() string { return "all" }

// NewState builds the symbolic state with unconstrained initial content:
// each process starts with an arbitrary set of mapped pages holding
// arbitrary content and permissions. The state lives in the region of c's
// Solver (symx.New).
func (vmSpec) NewState(c *symx.Context, cfg spec.Config) spec.State {
	s := symx.New[state](c)
	s.VMA = symx.NewDict(c, "vmap", func(c *symx.Context, tag string) *symx.Struct {
		return symx.NewStruct(c, "wr", c.Var(tag+".wr", sym.BoolSort, symx.KindState))
	})
	s.Mem = symx.NewDict(c, "vmem", func(c *symx.Context, tag string) *symx.Struct {
		return symx.NewStruct(c, "val", c.Var(tag+".val", dataSort, symx.KindState))
	})
	s.dicts = [...]*symx.Dict{s.VMA, s.Mem}
	return s
}

func (vmSpec) Impls() []spec.Impl {
	return []spec.Impl{{Name: "memvm", New: func() kernel.Kernel { return memvm.New() }}}
}

// FixupCall is a no-op: the VM interface has no per-call spec flags.
func (vmSpec) FixupCall(cfg spec.Config, call *kernel.Call) {}

// miner is the vm SetupMiner: the maps and slice a setup is mined into,
// cleared and reused from model to model. It rebuilds the concrete address
// spaces: every (proc, page) the witness probed as mapped becomes an
// memvm.SetupVMA carrying the probed permission and content. out is the
// Setup it returns, over vmas.
type miner struct {
	vals map[[2]int64]int64
	seen map[[2]int64]bool
	vmas []memvm.SetupVMA
	out  memvm.Setup
}

// NewMiner returns a vm miner with its maps made.
func (vmSpec) NewMiner() spec.SetupMiner {
	return &miner{vals: map[[2]int64]int64{}, seen: map[[2]int64]bool{}}
}

// Setup mines the mapped pages under m.
func (mn *miner) Setup(m sym.Model, probes *spec.Probes) kernel.Setup {
	clear(mn.vals)
	clear(mn.seen)
	mn.vmas = mn.vmas[:0]
	for _, p := range probes.Eval("vmem", m) {
		mn.vals[[2]int64{p.Key[0], p.Key[1]}] = p.Field("val")
	}
	for _, p := range probes.Eval("vmap", m) {
		proc := spec.Clamp(p.Key[0], 0, 1)
		page := spec.Clamp(p.Key[1], 0, kernel.MaxPage-1)
		at := [2]int64{proc, page}
		if mn.seen[at] {
			continue
		}
		mn.seen[at] = true
		mn.vmas = append(mn.vmas, memvm.SetupVMA{
			Proc: int(proc), Page: page,
			Val: mn.vals[[2]int64{p.Key[0], p.Key[1]}], Writable: p.Bool("wr"),
		})
	}
	slices.SortFunc(mn.vmas, func(a, b memvm.SetupVMA) int {
		return cmp.Or(cmp.Compare(a.Proc, b.Proc), cmp.Compare(a.Page, b.Page))
	})
	mn.out = memvm.Setup{VMAs: spec.OrNil(mn.vmas)}
	return &mn.out
}
