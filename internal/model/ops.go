package model

import (
	"repro/internal/kernel"
	"repro/internal/spec"
	"repro/internal/sym"
	"repro/internal/symx"
)

func errRet(errno int64) []*sym.Expr {
	return []*sym.Expr{sym.Int(-errno), sym.Int(0), sym.Int(0), sym.Int(0), dataZero}
}

func okRet(code *sym.Expr, is ...*sym.Expr) []*sym.Expr {
	out := []*sym.Expr{code, sym.Int(0), sym.Int(0), sym.Int(0), dataZero}
	for i, e := range is {
		out[i+1] = e
	}
	return out
}

func dataRet(code int64, d *sym.Expr) []*sym.Expr {
	return []*sym.Expr{sym.Int(code), sym.Int(0), sym.Int(0), sym.Int(0), d}
}

// allocFD picks a descriptor for a new open file. In LowestFD mode it scans
// for the lowest free slot (nil when the table is full); otherwise it is an
// unused descriptor chosen nondeterministically.
func allocFD(x *spec.Exec, slot string, proc *sym.Expr) *sym.Expr {
	s := st(x)
	if x.Cfg.LowestFD {
		for i := int64(0); i < kernel.MaxFD; i++ {
			if !s.FD.Contains(x.C, symx.K(proc, sym.Int(i))) {
				return sym.Int(i)
			}
		}
		return nil
	}
	v := x.C.Var("alloc.fd."+slot, sym.IntSort, symx.KindNondet)
	x.C.Assume(sym.And(sym.Ge(v, sym.Int(0)), sym.Le(v, sym.Int(kernel.MaxFD-1))))
	if s.FD.Contains(x.C, symx.K(proc, v)) {
		x.C.Abort() // the kernel picks an unused descriptor
	}
	return v
}

func fileFD(c *symx.Context, inum, off *sym.Expr) *symx.Struct {
	return symx.NewStruct(c, "ispipe", sym.False, "inum", inum, "off", off,
		"pipe", sym.Int(1), "wend", sym.False)
}

func pipeFD(c *symx.Context, pipe *sym.Expr, wend bool) *symx.Struct {
	return symx.NewStruct(c, "ispipe", sym.True, "inum", sym.Int(1), "off", sym.Int(0),
		"pipe", pipe, "wend", sym.Bool(wend))
}

// ops is the op table: the 18 modeled POSIX operations in Figure 6 order,
// built once per process. As in unix, the descriptor calls share fdOp, and
// read and pread, write and pwrite, and memread and memwrite share a body.
var ops = []*spec.Op{
	opOpen(), opLink(), opUnlink(), opRename(), opStat(),
	fdOp("fstat", false, fstat),
	fdOp("lseek", true, lseek,
		spec.ArgSpec{Name: "delta", Sort: sym.IntSort, Min: -maxLen, Max: maxLen, Bounded: true},
		spec.ArgSpec{Name: "wset", Sort: sym.BoolSort}, spec.ArgSpec{Name: "wend", Sort: sym.BoolSort}),
	opClose(), opPipe(),
	fdOp("read", false, read), fdOp("write", false, write, valArg()),
	fdOp("pread", true, read, offArg("off")), fdOp("pwrite", true, write, offArg("off"), valArg()),
	opMmap(), opMunmap(), opMprotect(), memOp("memread", false), memOp("memwrite", true),
}

func st(x *spec.Exec) *state { return x.S.(*state) }

func procArg() spec.ArgSpec { return spec.ArgSpec{Name: "proc", Sort: sym.BoolSort} }
func fdArg() spec.ArgSpec {
	return spec.ArgSpec{Name: "fd", Sort: sym.IntSort, Min: 0, Max: kernel.MaxFD - 1, Bounded: true}
}
func pageArg(name string) spec.ArgSpec {
	return spec.ArgSpec{Name: name, Sort: sym.IntSort, Min: 0, Max: kernel.MaxPage - 1, Bounded: true}
}
func offArg(name string) spec.ArgSpec {
	return spec.ArgSpec{Name: name, Sort: sym.IntSort, Min: 0, Max: maxLen, Bounded: true}
}
func valArg() spec.ArgSpec { return spec.ArgSpec{Name: "val", Sort: DataSort} }

func opOpen() *spec.Op {
	return &spec.Op{
		Name: "open",
		Args: []spec.ArgSpec{
			procArg(),
			{Name: "fname", Sort: FilenameSort},
			{Name: "creat", Sort: sym.BoolSort},
			{Name: "excl", Sort: sym.BoolSort},
			{Name: "trunc", Sort: sym.BoolSort},
		},
		Exec: func(x *spec.Exec, slot string, a []*sym.Expr) []*sym.Expr {
			s := st(x)
			proc, fname, creat, excl, trunc := a[0], a[1], a[2], a[3], a[4]
			var inum *sym.Expr
			if s.Fname.Contains(x.C, symx.K(fname)) {
				if x.C.Branch(sym.And(creat, excl)) {
					return errRet(kernel.EEXIST)
				}
				inum = s.Fname.Get(x.C, symx.K(fname)).Get("inum")
				if x.C.Branch(trunc) {
					ino := s.Inode.GetFunc(x.C, symx.K(inum))
					s.Inode.Set(x.C, symx.K(inum), ino.With(x.C, "len", sym.Int(0)))
				}
			} else {
				if !x.C.Branch(creat) {
					return errRet(kernel.ENOENT)
				}
				inum = s.allocInum(x.C, slot)
				s.Inode.Set(x.C, symx.K(inum),
					symx.NewStruct(x.C, "nlink", sym.Int(1), "len", sym.Int(0)))
				s.Fname.Set(x.C, symx.K(fname), symx.NewStruct(x.C, "inum", inum))
			}
			fd := allocFD(x, slot, proc)
			if fd == nil {
				return errRet(kernel.EMFILE)
			}
			s.FD.Set(x.C, symx.K(proc, fd), fileFD(x.C, inum, sym.Int(0)))
			return okRet(fd)
		},
	}
}

func opLink() *spec.Op {
	return &spec.Op{
		Name: "link",
		Args: []spec.ArgSpec{
			{Name: "old", Sort: FilenameSort},
			{Name: "new", Sort: FilenameSort},
		},
		Exec: func(x *spec.Exec, slot string, a []*sym.Expr) []*sym.Expr {
			s := st(x)
			old, nw := a[0], a[1]
			if !s.Fname.Contains(x.C, symx.K(old)) {
				return errRet(kernel.ENOENT)
			}
			if s.Fname.Contains(x.C, symx.K(nw)) {
				return errRet(kernel.EEXIST)
			}
			inum := s.Fname.Get(x.C, symx.K(old)).Get("inum")
			ino := s.Inode.GetFunc(x.C, symx.K(inum))
			s.Inode.Set(x.C, symx.K(inum),
				ino.With(x.C, "nlink", sym.Add(ino.Get("nlink"), sym.Int(1))))
			s.Fname.Set(x.C, symx.K(nw), symx.NewStruct(x.C, "inum", inum))
			return okRet(sym.Int(0))
		},
	}
}

func opUnlink() *spec.Op {
	return &spec.Op{
		Name: "unlink",
		Args: []spec.ArgSpec{{Name: "fname", Sort: FilenameSort}},
		Exec: func(x *spec.Exec, slot string, a []*sym.Expr) []*sym.Expr {
			s := st(x)
			fname := a[0]
			if !s.Fname.Contains(x.C, symx.K(fname)) {
				return errRet(kernel.ENOENT)
			}
			inum := s.Fname.Get(x.C, symx.K(fname)).Get("inum")
			ino := s.Inode.GetFunc(x.C, symx.K(inum))
			s.Inode.Set(x.C, symx.K(inum),
				ino.With(x.C, "nlink", sym.Sub(ino.Get("nlink"), sym.Int(1))))
			s.Fname.Del(x.C, symx.K(fname))
			return okRet(sym.Int(0))
		},
	}
}

// opRename mirrors Figure 4 of the paper.
func opRename() *spec.Op {
	return &spec.Op{
		Name: "rename",
		Args: []spec.ArgSpec{
			{Name: "src", Sort: FilenameSort},
			{Name: "dst", Sort: FilenameSort},
		},
		Exec: func(x *spec.Exec, slot string, a []*sym.Expr) []*sym.Expr {
			s := st(x)
			src, dst := a[0], a[1]
			if !s.Fname.Contains(x.C, symx.K(src)) {
				return errRet(kernel.ENOENT)
			}
			if x.C.Branch(sym.Eq(src, dst)) {
				return okRet(sym.Int(0))
			}
			si := s.Fname.Get(x.C, symx.K(src)).Get("inum")
			if s.Fname.Contains(x.C, symx.K(dst)) {
				di := s.Fname.Get(x.C, symx.K(dst)).Get("inum")
				ino := s.Inode.GetFunc(x.C, symx.K(di))
				s.Inode.Set(x.C, symx.K(di),
					ino.With(x.C, "nlink", sym.Sub(ino.Get("nlink"), sym.Int(1))))
			}
			s.Fname.Set(x.C, symx.K(dst), symx.NewStruct(x.C, "inum", si))
			s.Fname.Del(x.C, symx.K(src))
			return okRet(sym.Int(0))
		},
	}
}

func opStat() *spec.Op {
	return &spec.Op{
		Name: "stat",
		Args: []spec.ArgSpec{{Name: "fname", Sort: FilenameSort}},
		Exec: func(x *spec.Exec, slot string, a []*sym.Expr) []*sym.Expr {
			s := st(x)
			fname := a[0]
			if !s.Fname.Contains(x.C, symx.K(fname)) {
				return errRet(kernel.ENOENT)
			}
			return statInode(x, s.Fname.Get(x.C, symx.K(fname)).Get("inum"))
		},
	}
}

// statInode answers stat and fstat of a file: its number, link count and
// length.
func statInode(x *spec.Exec, inum *sym.Expr) []*sym.Expr {
	ino := st(x).Inode.GetFunc(x.C, symx.K(inum))
	return okRet(sym.Int(0), inum, ino.Get("nlink"), ino.Get("len"))
}

// fdBody is the rest of an op on a descriptor once fdOp has resolved it to
// f: pipe is whether f is a pipe, which it never is for a seek op, and seek
// is the op's.
type fdBody func(x *spec.Exec, a []*sym.Expr, f *symx.Struct, pipe, seek bool) []*sym.Expr

// fdOp is an op on the proc's fd argument, as unix's fdCall is: the
// descriptor must be open (EBADF), and a seek op — lseek, and pread and
// pwrite at their own offset — refuses a pipe (ESPIPE). args follow proc
// and fd.
func fdOp(name string, seek bool, body fdBody, args ...spec.ArgSpec) *spec.Op {
	return &spec.Op{
		Name: name,
		Args: append([]spec.ArgSpec{procArg(), fdArg()}, args...),
		Exec: func(x *spec.Exec, slot string, a []*sym.Expr) []*sym.Expr {
			s := st(x)
			if !s.FD.Contains(x.C, symx.K(a[0], a[1])) {
				return errRet(kernel.EBADF)
			}
			f := s.FD.Get(x.C, symx.K(a[0], a[1]))
			pipe := x.C.Branch(f.Get("ispipe"))
			if pipe && seek {
				return errRet(kernel.ESPIPE)
			}
			return body(x, a, f, pipe, seek)
		},
	}
}

func fstat(x *spec.Exec, a []*sym.Expr, f *symx.Struct, pipe, _ bool) []*sym.Expr {
	if !pipe {
		return statInode(x, f.Get("inum"))
	}
	p := st(x).Pipe.GetFunc(x.C, symx.K(f.Get("pipe")))
	// Pipes report a pseudo-inode in a disjoint (negative) number space,
	// link count 1, and queued length.
	return okRet(sym.Int(0), sym.Sub(sym.Int(0), f.Get("pipe")),
		sym.Int(1), sym.Sub(p.Get("tail"), p.Get("head")))
}

func lseek(x *spec.Exec, a []*sym.Expr, f *symx.Struct, _, _ bool) []*sym.Expr {
	s := st(x)
	delta, wset, wend := a[2], a[3], a[4]
	var n *sym.Expr
	switch {
	case x.C.Branch(wset):
		n = delta
	case x.C.Branch(wend):
		ino := s.Inode.GetFunc(x.C, symx.K(f.Get("inum")))
		n = sym.Add(ino.Get("len"), delta)
	default:
		n = sym.Add(f.Get("off"), delta)
	}
	if x.C.Branch(sym.Lt(n, sym.Int(0))) {
		return errRet(kernel.EINVAL)
	}
	s.FD.Set(x.C, symx.K(a[0], a[1]), f.With(x.C, "off", n))
	return okRet(sym.Int(0), n)
}

func opClose() *spec.Op {
	return &spec.Op{
		Name: "close",
		Args: []spec.ArgSpec{procArg(), fdArg()},
		Exec: func(x *spec.Exec, slot string, a []*sym.Expr) []*sym.Expr {
			s := st(x)
			proc, fd := a[0], a[1]
			if !s.FD.Contains(x.C, symx.K(proc, fd)) {
				return errRet(kernel.EBADF)
			}
			s.FD.Del(x.C, symx.K(proc, fd))
			return okRet(sym.Int(0))
		},
	}
}

func opPipe() *spec.Op {
	return &spec.Op{
		Name: "pipe",
		Args: []spec.ArgSpec{procArg()},
		Exec: func(x *spec.Exec, slot string, a []*sym.Expr) []*sym.Expr {
			s := st(x)
			proc := a[0]
			pid := s.allocPipe(x.C, slot)
			s.Pipe.Set(x.C, symx.K(pid),
				symx.NewStruct(x.C, "head", sym.Int(0), "tail", sym.Int(0)))
			rfd := allocFD(x, slot+".r", proc)
			if rfd == nil {
				return errRet(kernel.EMFILE)
			}
			s.FD.Set(x.C, symx.K(proc, rfd), pipeFD(x.C, pid, false))
			wfd := allocFD(x, slot+".w", proc)
			if wfd == nil {
				s.FD.Del(x.C, symx.K(proc, rfd))
				return errRet(kernel.EMFILE)
			}
			s.FD.Set(x.C, symx.K(proc, wfd), pipeFD(x.C, pid, true))
			return okRet(sym.Int(0), rfd, wfd)
		},
	}
}

// read is read and pread, which reads at its own offset (its first
// argument after proc and fd) and leaves the descriptor's where it is.
func read(x *spec.Exec, a []*sym.Expr, f *symx.Struct, pipe, seek bool) []*sym.Expr {
	s := st(x)
	if pipe {
		if x.C.Branch(f.Get("wend")) {
			return errRet(kernel.EBADF)
		}
		pid := f.Get("pipe")
		p := s.Pipe.GetFunc(x.C, symx.K(pid))
		if x.C.Branch(sym.Eq(p.Get("head"), p.Get("tail"))) {
			return errRet(kernel.EAGAIN) // modeled as non-blocking
		}
		v := s.PipeD.GetFunc(x.C, symx.K(pid, p.Get("head")))
		s.Pipe.Set(x.C, symx.K(pid),
			p.With(x.C, "head", sym.Add(p.Get("head"), sym.Int(1))))
		return dataRet(1, v.Get("val"))
	}
	off := f.Get("off")
	if seek {
		off = a[2]
	}
	ino := s.Inode.GetFunc(x.C, symx.K(f.Get("inum")))
	if x.C.Branch(sym.Ge(off, ino.Get("len"))) {
		return okRet(sym.Int(0)) // EOF
	}
	v := s.Data.GetFunc(x.C, symx.K(f.Get("inum"), off))
	if !seek {
		s.FD.Set(x.C, symx.K(a[0], a[1]), f.With(x.C, "off", sym.Add(off, sym.Int(1))))
	}
	return dataRet(1, v.Get("val"))
}

// write is write and pwrite, which writes at its own offset; the value is
// the last argument.
func write(x *spec.Exec, a []*sym.Expr, f *symx.Struct, pipe, seek bool) []*sym.Expr {
	s := st(x)
	val := a[len(a)-1]
	if pipe {
		if !x.C.Branch(f.Get("wend")) {
			return errRet(kernel.EBADF)
		}
		pid := f.Get("pipe")
		p := s.Pipe.GetFunc(x.C, symx.K(pid))
		s.PipeD.Set(x.C, symx.K(pid, p.Get("tail")),
			symx.NewStruct(x.C, "val", val))
		s.Pipe.Set(x.C, symx.K(pid),
			p.With(x.C, "tail", sym.Add(p.Get("tail"), sym.Int(1))))
		return okRet(sym.Int(1))
	}
	off, inum := f.Get("off"), f.Get("inum")
	if seek {
		off = a[2]
	}
	s.Data.Set(x.C, symx.K(inum, off), symx.NewStruct(x.C, "val", val))
	ino := s.Inode.GetFunc(x.C, symx.K(inum))
	end := sym.Add(off, sym.Int(1))
	if x.C.Branch(sym.Gt(end, ino.Get("len"))) {
		s.Inode.Set(x.C, symx.K(inum), ino.With(x.C, "len", end))
	}
	if !seek {
		s.FD.Set(x.C, symx.K(a[0], a[1]), f.With(x.C, "off", end))
	}
	return okRet(sym.Int(1))
}

func opMmap() *spec.Op {
	return &spec.Op{
		Name: "mmap",
		Args: []spec.ArgSpec{
			procArg(), pageArg("page"),
			{Name: "anon", Sort: sym.BoolSort},
			{Name: "fixed", Sort: sym.BoolSort},
			{Name: "wr", Sort: sym.BoolSort},
			fdArg(), offArg("foff"),
		},
		Exec: func(x *spec.Exec, slot string, a []*sym.Expr) []*sym.Expr {
			s := st(x)
			proc, page, anon, fixed, wr, fd, foff := a[0], a[1], a[2], a[3], a[4], a[5], a[6]
			var addr *sym.Expr
			if x.C.Branch(fixed) {
				addr = page // MAP_FIXED replaces any existing mapping
			} else {
				addr = x.C.Var("alloc.addr."+slot, sym.IntSort, symx.KindNondet)
				x.C.Assume(sym.And(sym.Ge(addr, sym.Int(0)), sym.Le(addr, sym.Int(kernel.MaxPage-1))))
				if s.VMA.Contains(x.C, symx.K(proc, addr)) {
					x.C.Abort() // the kernel picks an unused address
				}
			}
			if x.C.Branch(anon) {
				s.VMA.Set(x.C, symx.K(proc, addr), symx.NewStruct(x.C,
					"anon", sym.True, "inum", sym.Int(1), "foff", sym.Int(0), "wr", wr))
				s.Anon.Set(x.C, symx.K(proc, addr), symx.NewStruct(x.C, "val", dataZero))
				return okRet(sym.Int(0), addr)
			}
			if !s.FD.Contains(x.C, symx.K(proc, fd)) {
				return errRet(kernel.EBADF)
			}
			f := s.FD.Get(x.C, symx.K(proc, fd))
			if x.C.Branch(f.Get("ispipe")) {
				return errRet(kernel.ENODEV)
			}
			s.VMA.Set(x.C, symx.K(proc, addr), symx.NewStruct(x.C,
				"anon", sym.False, "inum", f.Get("inum"), "foff", foff, "wr", wr))
			return okRet(sym.Int(0), addr)
		},
	}
}

func opMunmap() *spec.Op {
	return &spec.Op{
		Name: "munmap",
		Args: []spec.ArgSpec{procArg(), pageArg("page")},
		Exec: func(x *spec.Exec, slot string, a []*sym.Expr) []*sym.Expr {
			s := st(x)
			proc, page := a[0], a[1]
			s.VMA.Del(x.C, symx.K(proc, page))
			s.Anon.Del(x.C, symx.K(proc, page))
			return okRet(sym.Int(0))
		},
	}
}

func opMprotect() *spec.Op {
	return &spec.Op{
		Name: "mprotect",
		Args: []spec.ArgSpec{procArg(), pageArg("page"), {Name: "wr", Sort: sym.BoolSort}},
		Exec: func(x *spec.Exec, slot string, a []*sym.Expr) []*sym.Expr {
			s := st(x)
			proc, page, wr := a[0], a[1], a[2]
			if !s.VMA.Contains(x.C, symx.K(proc, page)) {
				return errRet(kernel.ENOMEM)
			}
			v := s.VMA.Get(x.C, symx.K(proc, page))
			s.VMA.Set(x.C, symx.K(proc, page), v.With(x.C, "wr", wr))
			return okRet(sym.Int(0))
		},
	}
}

// memOp is memread and memwrite, as unix's memAccess is: an access to an
// unmapped page, or a write to a read-only one, faults (SIGSEGV), and one
// past the end of a mapped file faults too (SIGBUS).
func memOp(name string, write bool) *spec.Op {
	args := []spec.ArgSpec{procArg(), pageArg("page")}
	if write {
		args = append(args, valArg())
	}
	return &spec.Op{
		Name: name,
		Args: args,
		Exec: func(x *spec.Exec, slot string, a []*sym.Expr) []*sym.Expr {
			s := st(x)
			proc, page := a[0], a[1]
			if !s.VMA.Contains(x.C, symx.K(proc, page)) {
				return errRet(kernel.ESIGSEGV)
			}
			v := s.VMA.Get(x.C, symx.K(proc, page))
			if write && !x.C.Branch(v.Get("wr")) {
				return errRet(kernel.ESIGSEGV)
			}
			if x.C.Branch(v.Get("anon")) {
				if write {
					s.Anon.Set(x.C, symx.K(proc, page), symx.NewStruct(x.C, "val", a[2]))
					return okRet(sym.Int(0))
				}
				return dataRet(0, s.Anon.GetFunc(x.C, symx.K(proc, page)).Get("val"))
			}
			ino := s.Inode.GetFunc(x.C, symx.K(v.Get("inum")))
			if x.C.Branch(sym.Ge(v.Get("foff"), ino.Get("len"))) {
				return errRet(kernel.ESIGBUS)
			}
			at := symx.K(v.Get("inum"), v.Get("foff"))
			if write {
				s.Data.Set(x.C, at, symx.NewStruct(x.C, "val", a[2]))
				return okRet(sym.Int(0))
			}
			return dataRet(0, s.Data.GetFunc(x.C, at).Get("val"))
		},
	}
}
