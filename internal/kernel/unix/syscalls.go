package unix

import (
	"repro/internal/kernel"
	"repro/internal/mtrace"
)

// syscalls maps each op to its system call, written once for every design.
var syscalls = map[string]func(k *Kern, core int, c kernel.Call) kernel.Result{
	"open": (*Kern).open, "link": (*Kern).link, "unlink": (*Kern).unlink, "rename": (*Kern).rename,
	"stat": (*Kern).stat, "close": (*Kern).close, "pipe": (*Kern).pipe,
	"fstat": fdCall(false, (*Kern).fstat), "lseek": fdCall(true, (*Kern).lseek),
	"read": fdCall(false, (*Kern).read), "pread": fdCall(true, (*Kern).read),
	"write": fdCall(false, (*Kern).write), "pwrite": fdCall(true, (*Kern).write),
	"mmap": (*Kern).mmap, "munmap": (*Kern).munmap, "mprotect": (*Kern).mprotect,
	"memread": (*Kern).memAccess, "memwrite": (*Kern).memAccess,
}

var refuse = kernel.RegisterSetup("posix", func() kernel.Setup { return new(Setup) }, syscalls)

// Refuse implements kernel.Kernel.
func (k *Kern) Refuse(tc *kernel.TestCase) error { return refuse(tc) }

// Exec implements kernel.Kernel.
func (k *Kern) Exec(core int, c kernel.Call) kernel.Result { return syscalls[c.Op](k, core, c) }

// fdCall is a system call on the fd argument: it resolves it (EBADF), holds
// the file until the call returns and refuses a pipe to a seek (ESPIPE).
func fdCall(seek bool, call func(k *Kern, core int, c kernel.Call, f *file) kernel.Result) func(*Kern, int, kernel.Call) kernel.Result {
	return func(k *Kern, core int, c kernel.Call) kernel.Result {
		f := k.procs[c.Proc].get(core, c.Arg("fd"))
		if f == nil {
			return kernel.Errno(kernel.EBADF)
		}
		f.ref(core, 1)
		defer f.ref(core, -1)
		if seek && f.pipe != nil {
			return kernel.Errno(kernel.ESPIPE)
		}
		return call(k, core, c, f)
	}
}

// resultOr is success when ok, else errno.
func resultOr(ok bool, errno int64) kernel.Result {
	if ok {
		return kernel.Result{}
	}
	return kernel.Errno(errno)
}

func (k *Kern) open(core int, c kernel.Call) kernel.Result {
	name := c.Arg("fname")
	inum := k.dir.lookup(core, name)
	switch {
	case inum != 0 && c.ArgBool("creat") && c.ArgBool("excl"):
		return kernel.Errno(kernel.EEXIST)
	case inum != 0 && c.ArgBool("trunc"):
		d := k.inode(inum).data
		d.Acquire(core)
		d.truncate(core)
		d.Release(core)
	case inum == 0 && !c.ArgBool("creat"):
		return kernel.Errno(kernel.ENOENT)
	case inum == 0:
		inum = k.dir.bind(core, name, 0, k)
	}
	f := k.newFile("file[new:%d].refcnt", "file[new:%d].off", 0, inum)
	f.inum = inum
	fd := k.allocFD(core, k.procs[c.Proc], f, c.ArgBool("anyfd"))
	if fd < 0 {
		return kernel.Errno(kernel.EMFILE) // a name it created stays
	}
	return kernel.Result{Code: fd}
}

func (k *Kern) link(core int, c kernel.Call) kernel.Result {
	inum := k.dir.lookup(core, c.Arg("old"))
	if inum == 0 {
		return kernel.Errno(kernel.ENOENT)
	}
	return resultOr(k.dir.bind(core, c.Arg("new"), inum, k) != 0, kernel.EEXIST)
}

func (k *Kern) unlink(core int, c kernel.Call) kernel.Result {
	return resultOr(k.dir.unlink(core, c.Arg("fname"), k), kernel.ENOENT)
}

func (k *Kern) rename(core int, c kernel.Call) kernel.Result {
	return resultOr(k.dir.rename(core, c.Arg("src"), c.Arg("dst"), k), kernel.ENOENT)
}

// statInode answers stat; nolink (fstatx) reads no link count at all.
func (k *Kern) statInode(core int, inum int64, nolink bool) kernel.Result {
	ino := k.inode(inum)
	r := kernel.Result{V1: inum}
	if !nolink {
		r.V2 = ino.nlink.Read(core)
	}
	r.V3 = ino.data.length(core)
	return r
}

func (k *Kern) stat(core int, c kernel.Call) kernel.Result {
	inum := k.dir.lookup(core, c.Arg("fname"))
	if inum == 0 {
		return kernel.Errno(kernel.ENOENT)
	}
	return k.statInode(core, inum, c.ArgBool("nolink"))
}

func (k *Kern) fstat(core int, c kernel.Call, f *file) kernel.Result {
	if f.pipe != nil {
		return kernel.Result{V1: -f.pipe.id, V2: 1, V3: f.pipe.Len(core)}
	}
	return k.statInode(core, f.inum, c.ArgBool("nolink"))
}

func (k *Kern) lseek(core int, c kernel.Call, f *file) kernel.Result {
	// Optimism reads the offset first, so a seek to it writes nothing (§6.3);
	// two seeks to one target still share it (§6.4).
	wset, wend := c.ArgBool("wset"), c.ArgBool("wend")
	var cur int64
	if k.d.optimisticSeek || !wset && !wend {
		cur = f.off.Load(core)
	}
	n := cur + c.Arg("delta")
	switch {
	case wset:
		n = c.Arg("delta")
	case wend:
		n = k.inode(f.inum).data.length(core) + c.Arg("delta")
	}
	if n < 0 {
		return kernel.Errno(kernel.EINVAL)
	}
	if n != cur || !k.d.optimisticSeek {
		f.off.Store(core, n)
	}
	return kernel.Result{V1: n}
}

func (k *Kern) close(core int, c kernel.Call) kernel.Result {
	p := k.procs[c.Proc]
	p.fdLock.Acquire(core)
	defer p.fdLock.Release(core)
	fd := c.Arg("fd")
	f := p.get(core, fd)
	if f == nil {
		return kernel.Errno(kernel.EBADF)
	}
	p.slots.Delete(core, fd)
	f.release(core)
	return kernel.Result{}
}

func (k *Kern) pipe(core int, c kernel.Call) kernel.Result {
	mtrace.SetVar(k.mem, &k.nextPipe, k.nextPipe+1)
	id := k.nextPipe
	if k.d.fifoPipes {
		id += int64(core) * 1000000 // so the id is not an order between cores
	}
	p := k.newPipe(id)
	if p.refs != nil {
		p.refs.Store(core, 2)
	}
	rf := k.newFile("file[piper].refcnt", "file[piper].off", 0)
	wf := k.newFile("file[pipew].refcnt", "file[pipew].off", 0)
	rf.pipe, wf.pipe, wf.wend = p, p, true
	pr, anyfd := k.procs[c.Proc], c.ArgBool("anyfd")
	rfd := k.allocFD(core, pr, rf, anyfd)
	if rfd < 0 {
		return kernel.Errno(kernel.EMFILE)
	}
	wfd := k.allocFD(core, pr, wf, anyfd)
	if wfd < 0 {
		pr.slots.Delete(core, rfd) // the read end is closed again
		rf.release(core)
		return kernel.Errno(kernel.EMFILE)
	}
	return kernel.Result{V1: rfd, V2: wfd}
}

// read is read and pread, which reads at the call's offset and leaves the
// file's where it is.
func (k *Kern) read(core int, c kernel.Call, f *file) kernel.Result {
	if f.pipe != nil {
		if f.wend {
			return kernel.Errno(kernel.EBADF)
		}
		_, v, ok := f.pipe.Recv(core)
		if !ok {
			return kernel.Errno(kernel.EAGAIN)
		}
		return kernel.Result{Code: 1, Data: v}
	}
	off, at := c.Arg("off"), c.Op == "pread"
	if !at {
		off = f.off.Load(core)
	}
	v, ok := k.inode(f.inum).data.read(core, off)
	if !ok {
		return kernel.Result{} // EOF
	}
	if !at {
		f.off.Store(core, off+1)
	}
	return kernel.Result{Code: 1, Data: v}
}

// write is write and pwrite, which writes at the call's offset.
func (k *Kern) write(core int, c kernel.Call, f *file) kernel.Result {
	val := c.Arg("val")
	if f.pipe != nil {
		if !f.wend {
			return kernel.Errno(kernel.EBADF)
		}
		f.pipe.Send(core, val)
		return kernel.Result{Code: 1}
	}
	d := k.inode(f.inum).data
	d.Acquire(core)
	defer d.Release(core)
	off, at := c.Arg("off"), c.Op == "pwrite"
	if !at {
		off = f.off.Load(core)
	}
	writePage(core, d, off, val)
	if !at {
		f.off.Store(core, off+1)
	}
	return kernel.Result{Code: 1}
}

// mapped reports whether page is mapped, loading its entry.
func (p *proc) mapped(core int, page int64) bool {
	_, ok := p.vmas.Get(core, page)
	return ok
}

// anonPage is page's anonymous memory, built on first touch: whether it is
// mapped is its vma's business.
func (k *Kern) anonPage(p *proc, page int64) *mtrace.Cell {
	c, ok := p.anon[page]
	if !ok {
		c = k.mem.NewCellf(0, "proc%d.anonpage[%d]", p.id, page)
		p.anon[page] = c
	}
	return c
}

func (k *Kern) mmap(core int, c kernel.Call) kernel.Result {
	p, addr := k.procs[c.Proc], c.Arg("page")
	switch {
	case c.ArgBool("fixed"):
	case p.nextAddr != nil: // RadixVM: per-core partitions, no lock
		addr = 1000 + p.nextAddr.Alloc(core)
	default: // Linux: the first hole in the tree, under mmap_sem
		p.mmapSem.Acquire(core)
		for addr = 0; p.mapped(core, addr); addr++ {
		}
		p.mmapSem.Release(core)
	}
	nv := vma{anon: c.ArgBool("anon"), wr: c.ArgBool("wr")}
	if !nv.anon {
		f := p.get(core, c.Arg("fd"))
		if f == nil {
			return kernel.Errno(kernel.EBADF)
		}
		f.ref(core, 1)
		f.ref(core, -1)
		if f.pipe != nil {
			return kernel.Errno(kernel.ENODEV)
		}
		nv.inum, nv.foff = f.inum, c.Arg("foff")
	}
	p.mmapSem.Acquire(core)
	defer p.mmapSem.Release(core)
	p.vmas.Set(core, addr, nv)
	if p.vmaTree != nil {
		p.vmaTree.Add(core, 1)
	}
	if nv.anon {
		k.anonPage(p, addr).Store(core, 0)
	}
	return kernel.Result{V1: addr}
}

func (k *Kern) munmap(core int, c kernel.Call) kernel.Result {
	p := k.procs[c.Proc]
	p.mmapSem.Acquire(core)
	defer p.mmapSem.Release(core)
	// One cell on RadixVM, whose TLB shootdowns reach only the cores that
	// used the page, never the other call's.
	if page := c.Arg("page"); p.mapped(core, page) {
		p.vmas.Delete(core, page)
		if p.vmaTree != nil {
			p.vmaTree.Add(core, 1)
		}
	}
	return kernel.Result{}
}

func (k *Kern) mprotect(core int, c kernel.Call) kernel.Result {
	p := k.procs[c.Proc]
	p.mmapSem.Acquire(core)
	defer p.mmapSem.Release(core)
	page := c.Arg("page")
	v, ok := p.vmas.Get(core, page)
	if !ok {
		return kernel.Errno(kernel.ENOMEM)
	}
	v.wr = c.ArgBool("wr")
	p.vmas.Set(core, page, v)
	return kernel.Result{}
}

// memAccess is memread and memwrite; Linux's fault path walks the VMA tree
// under mmap_sem in read mode, an atomic add like the write mode's.
func (k *Kern) memAccess(core int, c kernel.Call) kernel.Result {
	p, page, write := k.procs[c.Proc], c.Arg("page"), c.Op == "memwrite"
	p.mmapSem.Acquire(core)
	if p.vmaTree != nil {
		_ = p.vmaTree.Load(core)
	}
	v, ok := p.vmas.Get(core, page)
	p.mmapSem.Release(core)
	switch {
	case !ok || write && !v.wr:
		return kernel.Errno(kernel.ESIGSEGV)
	case v.anon && write:
		k.anonPage(p, page).Store(core, c.Arg("val"))
	case v.anon:
		return kernel.Result{Data: k.anonPage(p, page).Load(core)}
	case write:
		if !k.inode(v.inum).data.writeMapped(core, v.foff, c.Arg("val")) {
			return kernel.Errno(kernel.ESIGBUS)
		}
	default:
		data, ok := k.inode(v.inum).data.read(core, v.foff)
		if !ok {
			return kernel.Errno(kernel.ESIGBUS)
		}
		return kernel.Result{Data: data}
	}
	return kernel.Result{}
}
