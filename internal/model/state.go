// Package model is a symbolic model of 18 POSIX file system and virtual
// memory system calls, in the style of COMMUTER's Python model (§6.1 of the
// paper): a simplified specification-level implementation over symbolic
// state, covering inodes, file names, file descriptors and offsets, hard
// links, link counts, file lengths, file contents, pipes, memory-mapped
// files, anonymous memory, and processes.
//
// File sizes and offsets are restricted to page granularity, like the
// paper's model. Nested directories are omitted (the paper disables them
// too, because of solver limitations).
package model

import (
	"repro/internal/sym"
	"repro/internal/symx"
)

// Symbolic sorts of the model. Filename and byte-page values are
// uninterpreted: they support only equality, which is all POSIX semantics
// needs from them.
var (
	// FilenameSort is the sort of path components.
	FilenameSort = sym.Uninterpreted("Filename")
	// DataSort is the sort of one page worth of file/pipe/memory content.
	DataSort = sym.Uninterpreted("Data")
)

// dataZero is the distinguished zero-filled page (anonymous mappings read
// as zero).
var dataZero = sym.Const(DataSort, 0)

// Bounds keep the symbolic integer domains small enough for the finite
// solver while leaving room for every distinct object a pair of calls can
// mention (two calls touch at most four names, so four inodes; at most
// three FDs; and so on).
const (
	// maxInum bounds initial inode numbers: 1..maxInum.
	maxInum = 4
	// maxPipe bounds initial pipe ids: 1..maxPipe.
	maxPipe = 2
	// maxLen bounds file lengths (in pages).
	maxLen = 3
	// maxFD bounds the per-process FD table: fds are 0..maxFD-1.
	maxFD = 3
	// maxPage bounds virtual address pages: 0..maxPage-1.
	maxPage = 3
)

// state is the symbolic POSIX state. Dictionaries are flat with tuple keys
// (see symx); both permutations of a pair analysis build a state with
// identical dictionary names so that unconstrained initial content is
// shared by construction.
type state struct {
	// Fname maps (name) -> {inum}: the single shared directory.
	Fname *symx.Dict
	// Inode maps (inum) -> {nlink, len}: a total-function view.
	Inode *symx.Dict
	// Data maps (inum, page) -> {val}: file contents.
	Data *symx.Dict
	// FD maps (proc, fd) -> {ispipe, inum, off, pipe, wend}: per-process
	// descriptor tables; proc is a boolean expression (two processes).
	FD *symx.Dict
	// Pipe maps (pipe) -> {head, tail}: pipe cursors, total-function view.
	Pipe *symx.Dict
	// PipeD maps (pipe, seq) -> {val}: pipe contents by sequence number.
	PipeD *symx.Dict
	// VMA maps (proc, page) -> {anon, inum, foff, wr}: address spaces.
	VMA *symx.Dict
	// Anon maps (proc, page) -> {val}: anonymous memory contents.
	Anon *symx.Dict

	// newInums and newPipes track nondeterministically allocated ids so
	// later allocations can be constrained distinct. Initial ids are
	// positive; allocated ids are negative, so the two can never collide.
	newInums []*sym.Expr
	newPipes []*sym.Expr
}

// newState builds the symbolic state with unconstrained initial content.
// The MakeVal closures install the model's state invariants via Assume:
// object ids referenced by initial state are positive and bounded, link
// counts of referenced inodes are at least one, cursors are ordered.
func newState(c *symx.Context) *state {
	s := &state{}
	s.Fname = symx.NewDict("fname", func(c *symx.Context, tag string) *symx.Struct {
		inum := c.Var(tag+".inum", sym.IntSort, symx.KindState)
		c.Assume(sym.And(sym.Ge(inum, sym.Int(1)), sym.Le(inum, sym.Int(maxInum))))
		return symx.NewStruct("inum", inum)
	})
	s.Inode = symx.NewDict("inode", func(c *symx.Context, tag string) *symx.Struct {
		nlink := c.Var(tag+".nlink", sym.IntSort, symx.KindState)
		ln := c.Var(tag+".len", sym.IntSort, symx.KindState)
		c.Assume(sym.And(
			sym.Ge(nlink, sym.Int(1)), sym.Le(nlink, sym.Int(maxInum)),
			sym.Ge(ln, sym.Int(0)), sym.Le(ln, sym.Int(maxLen))))
		return symx.NewStruct("nlink", nlink, "len", ln)
	})
	s.Data = symx.NewDict("data", func(c *symx.Context, tag string) *symx.Struct {
		return symx.NewStruct("val", c.Var(tag+".val", DataSort, symx.KindState))
	})
	s.FD = symx.NewDict("fd", func(c *symx.Context, tag string) *symx.Struct {
		ispipe := c.Var(tag+".ispipe", sym.BoolSort, symx.KindState)
		inum := c.Var(tag+".inum", sym.IntSort, symx.KindState)
		off := c.Var(tag+".off", sym.IntSort, symx.KindState)
		pipe := c.Var(tag+".pipe", sym.IntSort, symx.KindState)
		wend := c.Var(tag+".wend", sym.BoolSort, symx.KindState)
		c.Assume(sym.And(
			sym.Ge(inum, sym.Int(1)), sym.Le(inum, sym.Int(maxInum)),
			sym.Ge(off, sym.Int(0)), sym.Le(off, sym.Int(maxLen)),
			sym.Ge(pipe, sym.Int(1)), sym.Le(pipe, sym.Int(maxPipe))))
		return symx.NewStruct("ispipe", ispipe, "inum", inum, "off", off, "pipe", pipe, "wend", wend)
	})
	s.Pipe = symx.NewDict("pipe", func(c *symx.Context, tag string) *symx.Struct {
		head := c.Var(tag+".head", sym.IntSort, symx.KindState)
		tail := c.Var(tag+".tail", sym.IntSort, symx.KindState)
		c.Assume(sym.And(
			sym.Ge(head, sym.Int(0)), sym.Le(head, tail), sym.Le(tail, sym.Int(maxLen))))
		return symx.NewStruct("head", head, "tail", tail)
	})
	s.PipeD = symx.NewDict("piped", func(c *symx.Context, tag string) *symx.Struct {
		return symx.NewStruct("val", c.Var(tag+".val", DataSort, symx.KindState))
	})
	s.VMA = symx.NewDict("vma", func(c *symx.Context, tag string) *symx.Struct {
		anon := c.Var(tag+".anon", sym.BoolSort, symx.KindState)
		inum := c.Var(tag+".inum", sym.IntSort, symx.KindState)
		foff := c.Var(tag+".foff", sym.IntSort, symx.KindState)
		wr := c.Var(tag+".wr", sym.BoolSort, symx.KindState)
		c.Assume(sym.And(
			sym.Ge(inum, sym.Int(1)), sym.Le(inum, sym.Int(maxInum)),
			sym.Ge(foff, sym.Int(0)), sym.Le(foff, sym.Int(maxLen))))
		return symx.NewStruct("anon", anon, "inum", inum, "foff", foff, "wr", wr)
	})
	s.Anon = symx.NewDict("anon", func(c *symx.Context, tag string) *symx.Struct {
		return symx.NewStruct("val", c.Var(tag+".val", DataSort, symx.KindState))
	})
	return s
}

// Dicts returns the state dictionaries in comparison order (the spec
// layer's State contract). Fname, FD and VMA come before Inode/Data
// because their invariant closures may probe the inode table; comparing
// dependents first keeps late materialization from racing the comparison
// of the tables they reference.
func (s *state) Dicts() []*symx.Dict {
	return []*symx.Dict{s.Fname, s.FD, s.VMA, s.Pipe, s.PipeD, s.Anon, s.Inode, s.Data}
}

// allocInum returns a fresh, nondeterministically chosen inode number for
// slot (an operation instance tag). Allocated numbers are negative —
// disjoint from all initial inode numbers — and pairwise distinct.
func (s *state) allocInum(c *symx.Context, slot string) *sym.Expr {
	v := c.Var("alloc.inum."+slot, sym.IntSort, symx.KindNondet)
	c.Assume(sym.Le(v, sym.Int(-1)))
	for _, prev := range s.newInums {
		c.Assume(sym.Ne(v, prev))
	}
	s.newInums = append(s.newInums, v)
	return v
}

// allocPipe returns a fresh nondeterministic pipe id (negative, distinct).
func (s *state) allocPipe(c *symx.Context, slot string) *sym.Expr {
	v := c.Var("alloc.pipe."+slot, sym.IntSort, symx.KindNondet)
	c.Assume(sym.Le(v, sym.Int(-1)))
	for _, prev := range s.newPipes {
		c.Assume(sym.Ne(v, prev))
	}
	s.newPipes = append(s.newPipes, v)
	return v
}
