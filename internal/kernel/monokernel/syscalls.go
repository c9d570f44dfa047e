package monokernel

import (
	"fmt"

	"repro/internal/kernel"
	"repro/internal/mtrace"
)

// Exec implements kernel.Kernel.
func (k *Kern) Exec(core int, c kernel.Call) kernel.Result {
	switch c.Op {
	case "open":
		return k.open(core, c)
	case "link":
		return k.link(core, c)
	case "unlink":
		return k.unlink(core, c)
	case "rename":
		return k.rename(core, c)
	case "stat":
		return k.stat(core, c)
	case "fstat":
		return k.fstat(core, c)
	case "lseek":
		return k.lseek(core, c)
	case "close":
		return k.close(core, c)
	case "pipe":
		return k.pipe(core, c)
	case "read":
		return k.read(core, c)
	case "write":
		return k.write(core, c)
	case "pread":
		return k.pread(core, c)
	case "pwrite":
		return k.pwrite(core, c)
	case "mmap":
		return k.mmap(core, c)
	case "munmap":
		return k.munmap(core, c)
	case "mprotect":
		return k.mprotect(core, c)
	case "memread":
		return k.memread(core, c)
	case "memwrite":
		return k.memwrite(core, c)
	}
	panic(fmt.Sprintf("monokernel: unknown op %q", c.Op))
}

func (k *Kern) open(core int, c kernel.Call) kernel.Result {
	name := c.Arg("fname")
	creat, excl, trunc := c.ArgBool("creat"), c.ArgBool("excl"), c.ArgBool("trunc")
	inum := k.dget(core, name)
	if inum != 0 {
		if creat && excl {
			return kernel.Errno(kernel.EEXIST)
		}
		if trunc {
			ino := k.inode(inum)
			ino.mutex.Acquire(core)
			// Drop the cached pages too, or a later extension would
			// resurrect stale data instead of zero-filled holes.
			for pg := int64(0); pg < ino.len.Load(core); pg++ {
				ino.page(k.mem, inum, pg).Store(core, 0)
			}
			ino.len.Store(core, 0)
			ino.mutex.Release(core)
		}
	} else {
		if !creat {
			return kernel.Errno(kernel.ENOENT)
		}
		// Name creation takes the directory lock; the inode comes from
		// the global allocator. Both are conflict sources §6.2 reports.
		k.dirLock.Acquire(core)
		d := k.dentry(name)
		if d.inum.Load(core) != 0 {
			inum = d.inum.Load(core) // lost the race (single-threaded: unreachable)
		} else {
			inum = k.nextIno.Add(core, 1)
			ino := k.inode(inum)
			ino.nlink.Store(core, 1)
			ino.len.Store(core, 0)
			d.inum.Store(core, inum)
		}
		k.dirLock.Release(core)
	}
	f := &file{
		refcnt: k.mem.NewCellf(1, "file[new:%d]. refcnt", inum),
		off:    k.mem.NewCellf(0, "file[new:%d].off", inum),
		inum:   inum,
	}
	fd := k.allocFD(core, c.Proc, f)
	return kernel.Result{Code: fd}
}

func (k *Kern) link(core int, c kernel.Call) kernel.Result {
	old, nw := c.Arg("old"), c.Arg("new")
	inum := k.dget(core, old)
	if inum == 0 {
		return kernel.Errno(kernel.ENOENT)
	}
	k.dirLock.Acquire(core)
	defer k.dirLock.Release(core)
	d := k.dentry(nw)
	if d.inum.Load(core) != 0 {
		return kernel.Errno(kernel.EEXIST)
	}
	k.inode(inum).nlink.Add(core, 1)
	d.inum.Store(core, inum)
	return kernel.Result{}
}

func (k *Kern) unlink(core int, c kernel.Call) kernel.Result {
	name := c.Arg("fname")
	k.dirLock.Acquire(core)
	defer k.dirLock.Release(core)
	d := k.dentry(name)
	d.refcnt.Add(core, 1)
	inum := d.inum.Load(core)
	if inum == 0 {
		d.refcnt.Add(core, -1)
		return kernel.Errno(kernel.ENOENT)
	}
	k.inode(inum).nlink.Add(core, -1)
	d.inum.Store(core, 0)
	d.refcnt.Add(core, -1)
	return kernel.Result{}
}

// rename mirrors the model's Figure 4 semantics under the directory lock.
func (k *Kern) rename(core int, c kernel.Call) kernel.Result {
	src, dst := c.Arg("src"), c.Arg("dst")
	k.dirLock.Acquire(core)
	defer k.dirLock.Release(core)
	sd := k.dentry(src)
	sd.refcnt.Add(core, 1)
	si := sd.inum.Load(core)
	sd.refcnt.Add(core, -1)
	if si == 0 {
		return kernel.Errno(kernel.ENOENT)
	}
	if src == dst {
		return kernel.Result{}
	}
	dd := k.dentry(dst)
	dd.refcnt.Add(core, 1)
	if di := dd.inum.Load(core); di != 0 {
		k.inode(di).nlink.Add(core, -1)
	}
	dd.inum.Store(core, si)
	dd.refcnt.Add(core, -1)
	sd.inum.Store(core, 0)
	return kernel.Result{}
}

func (k *Kern) stat(core int, c kernel.Call) kernel.Result {
	inum := k.dget(core, c.Arg("fname"))
	if inum == 0 {
		return kernel.Errno(kernel.ENOENT)
	}
	ino := k.inode(inum)
	return kernel.Result{V1: inum, V2: ino.nlink.Load(core), V3: ino.len.Load(core)}
}

func (k *Kern) fstat(core int, c kernel.Call) kernel.Result {
	f := k.fget(core, c.Proc, c.Arg("fd"))
	if f == nil {
		return kernel.Errno(kernel.EBADF)
	}
	defer k.fput(core, f)
	if f.pipe != nil {
		f.pipe.lock.Acquire(core)
		n := f.pipe.tail.Load(core) - f.pipe.head.Load(core)
		f.pipe.lock.Release(core)
		return kernel.Result{V1: -f.pipe.id, V2: 1, V3: n}
	}
	ino := k.inode(f.inum)
	return kernel.Result{V1: f.inum, V2: ino.nlink.Load(core), V3: ino.len.Load(core)}
}

func (k *Kern) lseek(core int, c kernel.Call) kernel.Result {
	f := k.fget(core, c.Proc, c.Arg("fd"))
	if f == nil {
		return kernel.Errno(kernel.EBADF)
	}
	defer k.fput(core, f)
	if f.pipe != nil {
		return kernel.Errno(kernel.ESPIPE)
	}
	delta := c.Arg("delta")
	var n int64
	switch {
	case c.ArgBool("wset"):
		n = delta
	case c.ArgBool("wend"):
		n = k.inode(f.inum).len.Load(core) + delta
	default:
		n = f.off.Load(core) + delta
	}
	if n < 0 {
		return kernel.Errno(kernel.EINVAL)
	}
	f.off.Store(core, n)
	return kernel.Result{V1: n}
}

func (k *Kern) close(core int, c kernel.Call) kernel.Result {
	p := k.procs[c.Proc]
	fd := c.Arg("fd")
	p.fdLock.Acquire(core)
	defer p.fdLock.Release(core)
	s, ok := p.slots[fd]
	if !ok || s.cell.Load(core) == 0 {
		return kernel.Errno(kernel.EBADF)
	}
	s.cell.Store(core, 0)
	s.f.refcnt.Add(core, -1)
	return kernel.Result{}
}

func (k *Kern) pipe(core int, c kernel.Call) kernel.Result {
	mtrace.SetVar(k.mem, &k.nextPipe, k.nextPipe+1)
	p := k.newPipe(k.nextPipe)
	rf := &file{refcnt: k.mem.NewCellf(1, "file[piper].refcnt"), off: k.mem.NewCellf(0, "file[piper].off"), pipe: p}
	wf := &file{refcnt: k.mem.NewCellf(1, "file[pipew].refcnt"), off: k.mem.NewCellf(0, "file[pipew].off"), pipe: p, wend: true}
	rfd := k.allocFD(core, c.Proc, rf)
	wfd := k.allocFD(core, c.Proc, wf)
	return kernel.Result{V1: rfd, V2: wfd}
}

func (k *Kern) read(core int, c kernel.Call) kernel.Result {
	f := k.fget(core, c.Proc, c.Arg("fd"))
	if f == nil {
		return kernel.Errno(kernel.EBADF)
	}
	defer k.fput(core, f)
	if f.pipe != nil {
		if f.wend {
			return kernel.Errno(kernel.EBADF)
		}
		p := f.pipe
		p.lock.Acquire(core)
		defer p.lock.Release(core)
		h, t := p.head.Load(core), p.tail.Load(core)
		if h == t {
			return kernel.Errno(kernel.EAGAIN)
		}
		v := p.item(k.mem, h).Load(core)
		p.head.Store(core, h+1)
		return kernel.Result{Code: 1, Data: v}
	}
	ino := k.inode(f.inum)
	off := f.off.Load(core)
	if off >= ino.len.Load(core) {
		return kernel.Result{Code: 0}
	}
	v := ino.page(k.mem, f.inum, off).Load(core)
	f.off.Store(core, off+1)
	return kernel.Result{Code: 1, Data: v}
}

func (k *Kern) write(core int, c kernel.Call) kernel.Result {
	f := k.fget(core, c.Proc, c.Arg("fd"))
	if f == nil {
		return kernel.Errno(kernel.EBADF)
	}
	defer k.fput(core, f)
	val := c.Arg("val")
	if f.pipe != nil {
		if !f.wend {
			return kernel.Errno(kernel.EBADF)
		}
		p := f.pipe
		p.lock.Acquire(core)
		defer p.lock.Release(core)
		t := p.tail.Load(core)
		p.item(k.mem, t).Store(core, val)
		p.tail.Store(core, t+1)
		return kernel.Result{Code: 1}
	}
	ino := k.inode(f.inum)
	ino.mutex.Acquire(core)
	defer ino.mutex.Release(core)
	off := f.off.Load(core)
	ino.page(k.mem, f.inum, off).Store(core, val)
	if off+1 > ino.len.Load(core) {
		ino.len.Store(core, off+1)
	}
	f.off.Store(core, off+1)
	return kernel.Result{Code: 1}
}

func (k *Kern) pread(core int, c kernel.Call) kernel.Result {
	f := k.fget(core, c.Proc, c.Arg("fd"))
	if f == nil {
		return kernel.Errno(kernel.EBADF)
	}
	defer k.fput(core, f)
	if f.pipe != nil {
		return kernel.Errno(kernel.ESPIPE)
	}
	ino := k.inode(f.inum)
	off := c.Arg("off")
	if off >= ino.len.Load(core) {
		return kernel.Result{Code: 0}
	}
	return kernel.Result{Code: 1, Data: ino.page(k.mem, f.inum, off).Load(core)}
}

func (k *Kern) pwrite(core int, c kernel.Call) kernel.Result {
	f := k.fget(core, c.Proc, c.Arg("fd"))
	if f == nil {
		return kernel.Errno(kernel.EBADF)
	}
	defer k.fput(core, f)
	if f.pipe != nil {
		return kernel.Errno(kernel.ESPIPE)
	}
	ino := k.inode(f.inum)
	ino.mutex.Acquire(core)
	defer ino.mutex.Release(core)
	off := c.Arg("off")
	ino.page(k.mem, f.inum, off).Store(core, c.Arg("val"))
	if off+1 > ino.len.Load(core) {
		ino.len.Store(core, off+1)
	}
	return kernel.Result{Code: 1}
}

// vmWrite enters a VM-modifying section: mmap_sem in write mode.
func (p *proc) vmWrite(core int) { p.mmapSem.Add(core, 1) }
func (p *proc) vmDone(core int)  { p.mmapSem.Add(core, -1) }

// vmRead is the page-fault path's read-mode rwsem acquisition — an atomic
// add, i.e. a write to the semaphore's cache line.
func (p *proc) vmRead(core int) { p.mmapSem.Add(core, 1) }

func (k *Kern) mmap(core int, c kernel.Call) kernel.Result {
	p := k.procs[c.Proc]
	addr := c.Arg("page")
	if !c.ArgBool("fixed") {
		// Pick the first unmapped page while holding mmap_sem.
		p.vmWrite(core)
		for addr = 0; ; addr++ {
			if v, ok := p.vmas[addr]; !ok || v.cell.Load(core) == 0 {
				break
			}
		}
		p.vmDone(core)
	}
	var nv *vma
	if c.ArgBool("anon") {
		nv = &vma{anon: true, wr: c.ArgBool("wr")}
	} else {
		f := k.fget(core, c.Proc, c.Arg("fd"))
		if f == nil {
			return kernel.Errno(kernel.EBADF)
		}
		if f.pipe != nil {
			k.fput(core, f)
			return kernel.Errno(kernel.ENODEV)
		}
		nv = &vma{inum: f.inum, foff: c.Arg("foff"), wr: c.ArgBool("wr")}
		k.fput(core, f)
	}
	p.vmWrite(core)
	defer p.vmDone(core)
	old, ok := p.vmas[addr]
	if ok {
		old.cell.Store(core, 0)
	}
	// The new descriptor cell is born live (1) and never journaled; a
	// reset puts the previous map state back.
	nv.cell = k.mem.NewCellf(1, "proc%d.vma[%d]", c.Proc, addr)
	mtrace.SetKey(k.mem, p.vmas, addr, nv)
	p.vmaTree.Add(core, 1)
	if nv.anon {
		cell, ok := p.anon[addr]
		if !ok {
			cell = k.mem.NewCellf(0, "proc%d.anonpage[%d]", c.Proc, addr)
			p.anon[addr] = cell
		}
		cell.Store(core, 0)
	}
	return kernel.Result{V1: addr}
}

func (k *Kern) munmap(core int, c kernel.Call) kernel.Result {
	p := k.procs[c.Proc]
	p.vmWrite(core)
	defer p.vmDone(core)
	if v, ok := p.vmas[c.Arg("page")]; ok && v.cell.Load(core) != 0 {
		v.cell.Store(core, 0)
		p.vmaTree.Add(core, 1)
	}
	return kernel.Result{}
}

func (k *Kern) mprotect(core int, c kernel.Call) kernel.Result {
	p := k.procs[c.Proc]
	p.vmWrite(core)
	defer p.vmDone(core)
	v, ok := p.vmas[c.Arg("page")]
	if !ok || v.cell.Load(core) == 0 {
		return kernel.Errno(kernel.ENOMEM)
	}
	mtrace.SetVar(k.mem, &v.wr, c.ArgBool("wr"))
	v.cell.Add(core, 1)
	return kernel.Result{}
}

// fault resolves a page for access; it models the page-fault path: rwsem in
// read mode (still a write to the semaphore), then the VMA tree walk.
func (k *Kern) fault(core int, pr int, page int64) *vma {
	p := k.procs[pr]
	p.vmRead(core)
	defer p.vmDone(core)
	_ = p.vmaTree.Load(core)
	v, ok := p.vmas[page]
	if !ok || v.cell.Load(core) == 0 {
		return nil
	}
	return v
}

func (k *Kern) memread(core int, c kernel.Call) kernel.Result {
	page := c.Arg("page")
	v := k.fault(core, c.Proc, page)
	if v == nil {
		return kernel.Errno(kernel.ESIGSEGV)
	}
	if v.anon {
		return kernel.Result{Data: k.procs[c.Proc].anon[page].Load(core)}
	}
	ino := k.inode(v.inum)
	if v.foff >= ino.len.Load(core) {
		return kernel.Errno(kernel.ESIGBUS)
	}
	return kernel.Result{Data: ino.page(k.mem, v.inum, v.foff).Load(core)}
}

func (k *Kern) memwrite(core int, c kernel.Call) kernel.Result {
	page := c.Arg("page")
	v := k.fault(core, c.Proc, page)
	if v == nil {
		return kernel.Errno(kernel.ESIGSEGV)
	}
	if !v.wr {
		return kernel.Errno(kernel.ESIGSEGV)
	}
	val := c.Arg("val")
	if v.anon {
		k.procs[c.Proc].anon[page].Store(core, val)
		return kernel.Result{}
	}
	ino := k.inode(v.inum)
	if v.foff >= ino.len.Load(core) {
		return kernel.Errno(kernel.ESIGBUS)
	}
	ino.page(k.mem, v.inum, v.foff).Store(core, val)
	return kernel.Result{}
}
