package unix

import (
	"fmt"

	"repro/internal/kernel"
	"repro/internal/mtrace"
	"repro/internal/scale"
)

// A directory binds names to inode numbers (0: unbound); its mutators take
// the kernel to change link counts where their locking puts that. bind binds
// an unbound name to inum, or to a new inode when inum is 0, and returns the
// inode (0: the name was bound); unlink and rename report a bound name.
type directory interface {
	lookup(core int, name int64) int64
	bind(core int, name, inum int64, k *Kern) int64
	unlink(core int, name int64, k *Kern) bool
	rename(core int, src, dst int64, k *Kern) bool
	poke(name, inum int64)
}

// dcache is Linux's directory: a dentry per name, negative ones included.
type dcache struct {
	mem      *mtrace.Memory
	lock     *scale.SpinLock
	dentries map[int64]*dentry
}

type dentry struct {
	refcnt *mtrace.Cell
	inum   *mtrace.Cell
}

func (d *dcache) dentry(name int64) *dentry {
	if e, ok := d.dentries[name]; ok {
		return e
	}
	n := kernel.Fname(name)
	e := &dentry{refcnt: d.mem.NewCellf(0, "dentry[%s].refcnt", n), inum: d.mem.NewCellf(0, "dentry[%s].inum", n)}
	d.dentries[name] = e
	return e
}

// lookup is Linux's path walk: it bumps and drops the dentry's reference
// count around the read, and the write is the conflict §6.2 highlights.
func (d *dcache) lookup(core int, name int64) int64 {
	e := d.dentry(name)
	e.refcnt.Add(core, 1)
	inum := e.inum.Load(core)
	e.refcnt.Add(core, -1)
	return inum
}

// bind takes the directory lock, and a new inode from the global allocator:
// both are conflict sources §6.2 reports.
func (d *dcache) bind(core int, name, inum int64, k *Kern) int64 {
	d.lock.Acquire(core)
	defer d.lock.Release(core)
	e := d.dentry(name)
	if e.inum.Load(core) != 0 {
		return 0
	}
	if inum == 0 {
		inum = k.newInode(core)
	} else {
		k.inode(inum).nlink.Inc(core, 1)
	}
	e.inum.Store(core, inum)
	return inum
}

func (d *dcache) unlink(core int, name int64, k *Kern) bool {
	d.lock.Acquire(core)
	defer d.lock.Release(core)
	e := d.dentry(name)
	e.refcnt.Add(core, 1)
	defer e.refcnt.Add(core, -1)
	inum := e.inum.Load(core)
	if inum == 0 {
		return false
	}
	k.inode(inum).nlink.Inc(core, -1)
	e.inum.Store(core, 0)
	return true
}

// rename follows the model's Figure 4 semantics under the directory lock.
func (d *dcache) rename(core int, src, dst int64, k *Kern) bool {
	d.lock.Acquire(core)
	defer d.lock.Release(core)
	si := d.lookup(core, src)
	if si == 0 {
		return false
	}
	if src == dst {
		return true
	}
	e := d.dentry(dst)
	e.refcnt.Add(core, 1)
	if di := e.inum.Load(core); di != 0 {
		k.inode(di).nlink.Inc(core, -1)
	}
	e.inum.Store(core, si)
	e.refcnt.Add(core, -1)
	d.dentry(src).inum.Store(core, 0)
	return true
}

func (d *dcache) poke(name, inum int64) { d.dentry(name).inum.Poke(inum) }

// hashDir is sv6's directory: a lock-free lookup settles a failing link or
// unlink with no write, and updates re-verify under the bucket lock (§6.3).
type hashDir struct{ *scale.HashDir }

func (d hashDir) lookup(core int, name int64) int64 {
	inum, _ := d.Lookup(core, name)
	return inum
}

func (d hashDir) bind(core int, name, inum int64, k *Kern) int64 {
	if inum == 0 { // open found the name unbound, and traced runs are sequential
		inum = k.newInode(core)
		d.Insert(core, name, inum)
		return inum
	}
	if d.Exists(core, name) || !d.Insert(core, name, inum) {
		return 0
	}
	k.inode(inum).nlink.Inc(core, 1)
	return inum
}

// unlink defers work (§6.3): the inode is collected later, never reused.
func (d hashDir) unlink(core int, name int64, k *Kern) bool {
	if !d.Exists(core, name) {
		return false
	}
	inum, _ := d.Remove(core, name) // bound: traced runs are sequential
	k.inode(inum).nlink.Inc(core, -1)
	return true
}

// rename follows Figure 4 without reading inodes, and leaves a destination
// that already names the source's inode unwritten.
func (d hashDir) rename(core int, src, dst int64, k *Kern) bool {
	si, ok := d.Lookup(core, src)
	if !ok {
		return false
	}
	if src == dst {
		return true
	}
	if di, ok := d.Lookup(core, dst); ok && di == si {
		// Two names collapse to one: Figure 4 drops a link.
		d.Remove(core, src)
		k.inode(si).nlink.Inc(core, -1)
		return true
	}
	if old := d.Replace(core, dst, si); old != 0 {
		k.inode(old).nlink.Inc(core, -1)
	}
	d.Remove(core, src)
	return true
}

func (d hashDir) poke(name, inum int64) { d.PokeInsert(name, inum) }

// A linkCount is an inode's link count; born is its creator's first write.
type linkCount interface {
	born(core int)
	Inc(core int, delta int64)
	Read(core int) int64
	Peek() int64
	Poke(v int64)
}

// sharedCount is Linux's: one cell, set by the creator.
type sharedCount struct{ *scale.SharedCounter }

func (c sharedCount) born(core int) { c.Set(core, 1) }

// refcache is sv6's: a read reconciles every core's delta.
type refcache struct{ *scale.Refcache }

func (c refcache) born(core int) { c.Inc(core, 1) }

// fileData is an inode's pages. A hole reads as zero; read reports false at
// or past the end. Writes hold the lock; writeMapped is a write through a
// mapping, which does not extend the file (false: SIGBUS).
type fileData interface {
	lock
	born(core int)
	length(core int) int64
	read(core int, pg int64) (int64, bool)
	write(core int, pg, v int64)
	writeMapped(core int, pg, v int64) bool
	truncate(core int)
	apply(si SetupInode)
}

// writePage is the one way a file grows.
func writePage(core int, d fileData, pg, v int64) {
	if pg >= kernel.MaxFilePages {
		panic(fmt.Sprintf("unix: write to page %d, past a file's %d", pg, kernel.MaxFilePages))
	}
	d.write(core, pg, v)
}

// pageCells is Linux's file data, its lock the inode's mutex.
type pageCells struct {
	*scale.SpinLock
	mem   *mtrace.Memory
	inum  int64
	len   *mtrace.Cell
	pages map[int64]*mtrace.Cell
}

func newPageCells(mem *mtrace.Memory, inum int64) *pageCells {
	d := &pageCells{mem: mem, inum: inum, len: mem.NewCellf(0, "inode[%d].len", inum), pages: map[int64]*mtrace.Cell{}}
	d.SpinLock = scale.NewSpinLock(mem, fmt.Sprintf("inode[%d].mutex", inum))
	return d
}

func (d *pageCells) page(pg int64) *mtrace.Cell {
	p, ok := d.pages[pg]
	if !ok {
		p = d.mem.NewCellf(0, "page[%d:%d]", d.inum, pg)
		d.pages[pg] = p
	}
	return p
}

func (d *pageCells) born(core int)         { d.len.Store(core, 0) }
func (d *pageCells) length(core int) int64 { return d.len.Load(core) }

func (d *pageCells) read(core int, pg int64) (int64, bool) {
	if pg >= d.len.Load(core) {
		return 0, false
	}
	return d.page(pg).Load(core), true
}

func (d *pageCells) write(core int, pg, v int64) {
	d.page(pg).Store(core, v)
	if pg+1 > d.len.Load(core) {
		d.len.Store(core, pg+1)
	}
}

func (d *pageCells) writeMapped(core int, pg, v int64) bool {
	if pg >= d.len.Load(core) {
		return false
	}
	d.page(pg).Store(core, v)
	return true
}

// truncate zeroes the pages too, or an extension would resurrect them.
func (d *pageCells) truncate(core int) {
	for pg := int64(0); pg < d.len.Load(core); pg++ {
		d.page(pg).Store(core, 0)
	}
	d.len.Store(core, 0)
}

func (d *pageCells) apply(si SetupInode) {
	d.len.Poke(si.Len)
	for pg, v := range si.Pages {
		d.page(pg).Poke(v)
	}
}

// radixPages is sv6's file data: writes extending a file stay conflict-free
// with reads of its other pages.
type radixPages struct {
	noLock
	pages, present *scale.Radix
}

func (d *radixPages) init(mem *mtrace.Memory, inum int64) {
	d.pages = scale.NewRadix(mem, fmt.Sprintf("inode[%d].pages", inum), 16)
	d.present = scale.NewRadix(mem, fmt.Sprintf("inode[%d].present", inum), 16)
	// Interior nodes exist up front (RadixVM's eager allocation), so
	// concurrent first writes to different pages stay conflict-free.
	d.pages.Materialize(kernel.MaxFilePages)
	d.present.Materialize(kernel.MaxFilePages)
}

func (d *radixPages) born(int) {}

func (d *radixPages) length(core int) int64 {
	var n int64
	for pg := int64(0); pg < kernel.MaxFilePages; pg++ {
		if d.present.Get(core, pg) != 0 {
			n = pg + 1
		}
	}
	return n
}

// read scans for the length only on a miss, a hole or the end: reads racing
// the end of a file do not commute with extending it anyway.
func (d *radixPages) read(core int, pg int64) (int64, bool) {
	if d.present.Get(core, pg) == 0 {
		return 0, pg < d.length(core)
	}
	return d.pages.Get(core, pg), true
}

func (d *radixPages) write(core int, pg, v int64) {
	d.pages.Set(core, pg, v)
	// A rewrite leaves the presence cell length scans read (§6.3's optimism).
	if d.present.Get(core, pg) == 0 {
		d.present.Set(core, pg, 1)
	}
}

func (d *radixPages) writeMapped(core int, pg, v int64) bool {
	if d.present.Get(core, pg) == 0 {
		if pg >= d.length(core) {
			return false
		}
		d.present.Set(core, pg, 1) // materialize the hole
	}
	d.pages.Set(core, pg, v)
	return true
}

func (d *radixPages) truncate(core int) {
	for pg := int64(0); pg < kernel.MaxFilePages; pg++ {
		if d.present.Get(core, pg) != 0 {
			d.present.Set(core, pg, 0)
		}
	}
}

func (d *radixPages) apply(si SetupInode) {
	for pg := int64(0); pg < si.Len; pg++ {
		d.present.Poke(pg, 1)
	}
	for pg, v := range si.Pages {
		d.pages.Poke(pg, v)
		d.present.Poke(pg, 1)
	}
}

// lockedPipe is Linux's pipe: one lock around both cursors, and a reader
// compares head with tail, so every read conflicts with every write.
type lockedPipe struct {
	mem        *mtrace.Memory
	id         int64
	lock       *scale.SpinLock
	head, tail *mtrace.Cell
	items      map[int64]*mtrace.Cell
}

func (p *lockedPipe) item(seq int64) *mtrace.Cell {
	c, ok := p.items[seq]
	if !ok {
		c = p.mem.NewCellf(0, "pipe[%d].item[%d]", p.id, seq)
		p.items[seq] = c
	}
	return c
}

func (p *lockedPipe) Len(core int) int64 {
	p.lock.Acquire(core)
	defer p.lock.Release(core)
	return p.tail.Load(core) - p.head.Load(core)
}

func (p *lockedPipe) Send(core int, v int64) int64 {
	p.lock.Acquire(core)
	defer p.lock.Release(core)
	t := p.tail.Load(core)
	p.item(t).Store(core, v)
	p.tail.Store(core, t+1)
	return t
}

func (p *lockedPipe) Recv(core int) (seq, v int64, ok bool) {
	p.lock.Acquire(core)
	defer p.lock.Release(core)
	h, t := p.head.Load(core), p.tail.Load(core)
	if h == t {
		return h, 0, false
	}
	v = p.item(h).Load(core)
	p.head.Store(core, h+1)
	return h, v, true
}
