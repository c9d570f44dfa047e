package svsix

import (
	"fmt"

	"repro/internal/kernel"
	"repro/internal/mtrace"
)

// maxScan bounds page-presence scans when reconciling file lengths; test
// cases and benchmarks keep files within this many pages.
const maxScan = 8

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
	case "fstatx":
		return k.fstat(core, c) // field selection via the "nolink" arg
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
	panic(fmt.Sprintf("svsix: unknown op %q", c.Op))
}

func (k *Kern) open(core int, c kernel.Call) kernel.Result {
	name := c.Arg("fname")
	creat, excl, trunc := c.ArgBool("creat"), c.ArgBool("excl"), c.ArgBool("trunc")
	// Optimistic check stage (§6.3): a lock-free lookup handles the
	// no-update cases (plain open, EEXIST) without writes.
	inum, exists := k.dir.Lookup(core, name)
	switch {
	case exists && creat && excl:
		return kernel.Errno(kernel.EEXIST)
	case exists:
		if trunc {
			ino := k.inode(inum)
			for pg := int64(0); pg < maxScan; pg++ {
				if ino.pagePresent.Get(core, pg) != 0 {
					ino.pagePresent.Set(core, pg, 0)
				}
			}
		}
	case !creat:
		return kernel.Errno(kernel.ENOENT)
	default:
		// Pessimistic update stage: allocate from the per-core pool and
		// publish under the bucket lock, re-verifying existence.
		inum = k.inoAlloc.Alloc(core)
		ino := k.inode(inum)
		ino.nlink.Inc(core, 1)
		if !k.dir.Insert(core, name, inum) {
			// Raced with another creator (unreachable single-threaded).
			ino.nlink.Inc(core, -1)
			inum, _ = k.dir.Lookup(core, name)
		}
	}
	f := &file{
		off:  k.mem.NewCellf(0, "file[new:%d].off", inum),
		inum: inum,
	}
	fd := k.allocFD(core, c.Proc, f, c.ArgBool("anyfd"))
	return kernel.Result{Code: fd}
}

func (k *Kern) link(core int, c kernel.Call) kernel.Result {
	old, nw := c.Arg("old"), c.Arg("new")
	inum, ok := k.dir.Lookup(core, old)
	if !ok {
		return kernel.Errno(kernel.ENOENT)
	}
	// Optimistic check stage (§6.3): an existing target fails with no
	// writes and no lock, so identical failing links commute conflict-
	// free; Insert re-verifies under the bucket lock.
	if k.dir.Exists(core, nw) {
		return kernel.Errno(kernel.EEXIST)
	}
	if !k.dir.Insert(core, nw, inum) {
		return kernel.Errno(kernel.EEXIST)
	}
	k.inode(inum).nlink.Inc(core, 1)
	return kernel.Result{}
}

func (k *Kern) unlink(core int, c kernel.Call) kernel.Result {
	name := c.Arg("fname")
	// Optimistic check stage: a missing name fails lock-free.
	if !k.dir.Exists(core, name) {
		return kernel.Errno(kernel.ENOENT)
	}
	inum, ok := k.dir.Remove(core, name)
	if !ok {
		return kernel.Errno(kernel.ENOENT)
	}
	// Defer work (§6.3): the link count drops via per-core deltas and
	// the inode is garbage-collected later; numbers are never reused.
	k.inode(inum).nlink.Inc(core, -1)
	return kernel.Result{}
}

// rename follows the model's Figure 4 semantics with ScaleFS's patterns:
// existence checks never read inodes, and the destination entry is not
// written when it already points at the source's inode.
func (k *Kern) rename(core int, c kernel.Call) kernel.Result {
	src, dst := c.Arg("src"), c.Arg("dst")
	si, ok := k.dir.Lookup(core, src)
	if !ok {
		return kernel.Errno(kernel.ENOENT)
	}
	if src == dst {
		return kernel.Result{}
	}
	if di, ok := k.dir.Lookup(core, dst); ok && di == si {
		// Don't read or write what you don't need: b already points at
		// the right inode, so only the source entry changes. Figure 4's
		// model still drops one link (two names collapsed to one).
		k.dir.Remove(core, src)
		k.inode(si).nlink.Inc(core, -1)
		return kernel.Result{}
	}
	old := k.dir.Replace(core, dst, si)
	if old != 0 {
		k.inode(old).nlink.Inc(core, -1)
	}
	k.dir.Remove(core, src)
	return kernel.Result{}
}

func (k *Kern) statResult(core int, inum int64, nolink bool) kernel.Result {
	ino := k.inode(inum)
	var nlink int64
	if !nolink {
		nlink = ino.nlink.Read(core)
	}
	return kernel.Result{V1: inum, V2: nlink, V3: ino.length(core, maxScan)}
}

func (k *Kern) stat(core int, c kernel.Call) kernel.Result {
	inum, ok := k.dir.Lookup(core, c.Arg("fname"))
	if !ok {
		return kernel.Errno(kernel.ENOENT)
	}
	return k.statResult(core, inum, c.ArgBool("nolink"))
}

func (k *Kern) fstat(core int, c kernel.Call) kernel.Result {
	f := k.fget(core, c.Proc, c.Arg("fd"))
	if f == nil {
		return kernel.Errno(kernel.EBADF)
	}
	if f.pipe != nil {
		return kernel.Result{V1: -f.pipe.id, V2: 1, V3: f.pipe.Len(core)}
	}
	return k.statResult(core, f.inum, c.ArgBool("nolink"))
}

func (k *Kern) lseek(core int, c kernel.Call) kernel.Result {
	f := k.fget(core, c.Proc, c.Arg("fd"))
	if f == nil {
		return kernel.Errno(kernel.EBADF)
	}
	if f.pipe != nil {
		return kernel.Errno(kernel.ESPIPE)
	}
	delta := c.Arg("delta")
	cur := f.off.Load(core)
	var n int64
	switch {
	case c.ArgBool("wset"):
		n = delta
	case c.ArgBool("wend"):
		n = k.inode(f.inum).length(core, maxScan) + delta
	default:
		n = cur + delta
	}
	if n < 0 {
		return kernel.Errno(kernel.EINVAL)
	}
	// Precede pessimism with optimism (§6.3): seeking to the current
	// offset needs no write. Two lseeks to the same target still share
	// the offset cell — the §6.4 idempotent-update trade-off.
	if n != cur {
		f.off.Store(core, n)
	}
	return kernel.Result{V1: n}
}

func (k *Kern) close(core int, c kernel.Call) kernel.Result {
	f := k.fget(core, c.Proc, c.Arg("fd"))
	if f == nil {
		return kernel.Errno(kernel.EBADF)
	}
	f.slot.Store(core, 0)
	if f.pipe != nil {
		// §6.4: pipe ends must observe the last close immediately, so a
		// shared count is kept — a deliberately non-scalable case.
		f.pipe.refs.Add(core, -1)
	}
	return kernel.Result{}
}

func (k *Kern) pipe(core int, c kernel.Call) kernel.Result {
	mtrace.SetVar(k.mem, &k.nextPipe, k.nextPipe+1)
	p := k.newPipe(k.nextPipe + int64(core)*1000000)
	p.refs.Store(core, 2)
	anyfd := c.ArgBool("anyfd")
	rf := &file{off: k.mem.NewCellf(0, "file[piper].off"), pipe: p}
	rfd := k.allocFD(core, c.Proc, rf, anyfd)
	wf := &file{off: k.mem.NewCellf(0, "file[pipew].off"), pipe: p, wend: true}
	wfd := k.allocFD(core, c.Proc, wf, anyfd)
	return kernel.Result{V1: rfd, V2: wfd}
}

func (k *Kern) read(core int, c kernel.Call) kernel.Result {
	f := k.fget(core, c.Proc, c.Arg("fd"))
	if f == nil {
		return kernel.Errno(kernel.EBADF)
	}
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
	ino := k.inode(f.inum)
	off := f.off.Load(core)
	// Layer scalability (§6.3): bounds come from the per-page presence
	// radix, not a shared length cell, so reads don't conflict with
	// appends elsewhere in the file. Only the miss path (a hole or EOF)
	// reconciles the length, and reads racing the end of the file don't
	// commute with extension anyway.
	if ino.pagePresent.Get(core, off) == 0 {
		if off >= ino.length(core, maxScan) {
			return kernel.Result{Code: 0} // EOF
		}
		f.off.Store(core, off+1)
		return kernel.Result{Code: 1, Data: 0} // hole: reads as zero
	}
	v := ino.pages.Get(core, off)
	f.off.Store(core, off+1)
	return kernel.Result{Code: 1, Data: v}
}

func (k *Kern) write(core int, c kernel.Call) kernel.Result {
	f := k.fget(core, c.Proc, c.Arg("fd"))
	if f == nil {
		return kernel.Errno(kernel.EBADF)
	}
	val := c.Arg("val")
	if f.pipe != nil {
		if !f.wend {
			return kernel.Errno(kernel.EBADF)
		}
		f.pipe.Send(core, val)
		return kernel.Result{Code: 1}
	}
	ino := k.inode(f.inum)
	off := f.off.Load(core)
	ino.pages.Set(core, off, val)
	// Double-checked presence: rewriting an existing page must not write
	// the presence cell that readers of other offsets scan (§6.3's
	// "precede pessimism with optimism").
	if ino.pagePresent.Get(core, off) == 0 {
		ino.pagePresent.Set(core, off, 1)
	}
	f.off.Store(core, off+1)
	return kernel.Result{Code: 1}
}

func (k *Kern) pread(core int, c kernel.Call) kernel.Result {
	f := k.fget(core, c.Proc, c.Arg("fd"))
	if f == nil {
		return kernel.Errno(kernel.EBADF)
	}
	if f.pipe != nil {
		return kernel.Errno(kernel.ESPIPE)
	}
	ino := k.inode(f.inum)
	off := c.Arg("off")
	if ino.pagePresent.Get(core, off) == 0 {
		if off >= ino.length(core, maxScan) {
			return kernel.Result{Code: 0} // EOF
		}
		return kernel.Result{Code: 1, Data: 0} // hole
	}
	return kernel.Result{Code: 1, Data: ino.pages.Get(core, off)}
}

func (k *Kern) pwrite(core int, c kernel.Call) kernel.Result {
	f := k.fget(core, c.Proc, c.Arg("fd"))
	if f == nil {
		return kernel.Errno(kernel.EBADF)
	}
	if f.pipe != nil {
		return kernel.Errno(kernel.ESPIPE)
	}
	ino := k.inode(f.inum)
	off := c.Arg("off")
	ino.pages.Set(core, off, c.Arg("val"))
	if ino.pagePresent.Get(core, off) == 0 {
		ino.pagePresent.Set(core, off, 1)
	}
	return kernel.Result{Code: 1}
}

func (k *Kern) vma(pr int, page int64) *vmaCell {
	p := k.procs[pr]
	v, ok := p.vmas[page]
	if !ok {
		v = &vmaCell{cell: k.mem.NewCellf(0, "proc%d.vma[%d]", pr, page)}
		p.vmas[page] = v
	}
	return v
}

func (k *Kern) anonPage(pr int, page int64) *mtrace.Cell {
	p := k.procs[pr]
	c, ok := p.anon[page]
	if !ok {
		c = k.mem.NewCellf(0, "proc%d.anonpage[%d]", pr, page)
		p.anon[page] = c
	}
	return c
}

func (k *Kern) mmap(core int, c kernel.Call) kernel.Result {
	pr := c.Proc
	p := k.procs[pr]
	addr := c.Arg("page")
	if !c.ArgBool("fixed") {
		// RadixVM address allocation: per-core partitions, no shared
		// cursor and no whole-address-space lock.
		addr = 1000 + p.nextAddr.Alloc(core)
	}
	v := k.vma(pr, addr)
	nv := vmaCell{cell: v.cell, wr: c.ArgBool("wr")}
	if c.ArgBool("anon") {
		nv.anon = true
	} else {
		f := k.fget(core, pr, c.Arg("fd"))
		if f == nil {
			return kernel.Errno(kernel.EBADF)
		}
		if f.pipe != nil {
			return kernel.Errno(kernel.ENODEV)
		}
		nv.inum, nv.foff = f.inum, c.Arg("foff")
	}
	mtrace.SetVar(k.mem, v, nv)
	v.cell.Store(core, 1)
	if v.anon {
		k.anonPage(pr, addr).Store(core, 0)
	}
	return kernel.Result{V1: addr}
}

func (k *Kern) munmap(core int, c kernel.Call) kernel.Result {
	v := k.vma(c.Proc, c.Arg("page"))
	// One page cell; RadixVM's targeted TLB shootdowns touch only cores
	// that accessed the page, which the two-core checker never overlaps.
	if v.cell.Load(core) != 0 {
		v.cell.Store(core, 0)
	}
	return kernel.Result{}
}

func (k *Kern) mprotect(core int, c kernel.Call) kernel.Result {
	v := k.vma(c.Proc, c.Arg("page"))
	if v.cell.Load(core) == 0 {
		return kernel.Errno(kernel.ENOMEM)
	}
	mtrace.SetVar(k.mem, &v.wr, c.ArgBool("wr"))
	v.cell.Add(core, 1)
	return kernel.Result{}
}

func (k *Kern) memread(core int, c kernel.Call) kernel.Result {
	page := c.Arg("page")
	v := k.vma(c.Proc, page)
	if v.cell.Load(core) == 0 {
		return kernel.Errno(kernel.ESIGSEGV)
	}
	if v.anon {
		return kernel.Result{Data: k.anonPage(c.Proc, page).Load(core)}
	}
	ino := k.inode(v.inum)
	if ino.pagePresent.Get(core, v.foff) == 0 {
		if v.foff >= ino.length(core, maxScan) {
			return kernel.Errno(kernel.ESIGBUS)
		}
		return kernel.Result{Data: 0} // hole
	}
	return kernel.Result{Data: ino.pages.Get(core, v.foff)}
}

func (k *Kern) memwrite(core int, c kernel.Call) kernel.Result {
	page := c.Arg("page")
	v := k.vma(c.Proc, page)
	if v.cell.Load(core) == 0 {
		return kernel.Errno(kernel.ESIGSEGV)
	}
	if !v.wr {
		return kernel.Errno(kernel.ESIGSEGV)
	}
	if v.anon {
		k.anonPage(c.Proc, page).Store(core, c.Arg("val"))
		return kernel.Result{}
	}
	ino := k.inode(v.inum)
	if ino.pagePresent.Get(core, v.foff) == 0 {
		if v.foff >= ino.length(core, maxScan) {
			return kernel.Errno(kernel.ESIGBUS)
		}
		ino.pagePresent.Set(core, v.foff, 1) // materialize the hole
	}
	ino.pages.Set(core, v.foff, c.Arg("val"))
	return kernel.Result{}
}
