// Package monokernel is the Linux-3.8-like baseline kernel: an in-memory
// Unix kernel (ramfs + virtual memory) whose sharing structure deliberately
// mirrors the conflict sources §6.2 of the paper found in Linux:
//
//   - every name lookup bumps a dentry reference count,
//   - any operation creating or removing names takes the directory lock,
//   - every descriptor use bumps the struct-file reference count,
//   - descriptor allocation takes the file-table lock and obeys the
//     "lowest available FD" rule,
//   - inode link counts and lengths are single shared cache lines,
//   - file writes serialize on the inode mutex,
//   - new inodes come from one global allocator,
//   - pipes serialize all ends on one pipe lock,
//   - every VM operation takes the process-wide mmap_sem, including the
//     read-mode acquisition (an atomic write) on the page-fault path.
//
// Its semantics match the POSIX model; only its sharing differs from sv6.
package monokernel

import (
	"fmt"

	"repro/internal/kernel"
	"repro/internal/mtrace"
	"repro/internal/scale"
)

type dentry struct {
	refcnt *mtrace.Cell
	inum   *mtrace.Cell // 0 = negative dentry (name absent)
}

type inode struct {
	nlink *mtrace.Cell
	len   *mtrace.Cell
	mutex *scale.SpinLock
	pages map[int64]*mtrace.Cell
}

type file struct {
	refcnt *mtrace.Cell
	off    *mtrace.Cell
	pipe   *pipe
	wend   bool
	inum   int64
}

type fdslot struct {
	cell *mtrace.Cell // slot version; written on install/clear
	f    *file
}

// pipe is Linux's: one lock around both cursors, and readers compare head
// with tail, so any read conflicts with any write. It stays beside
// scale.FIFO, sv6's pipe, as the non-scalable baseline, the way
// scale.SharedCounter stays beside scale.Refcache.
type pipe struct {
	id    int64 // names the slot cells, so reports tell two pipes apart
	lock  *scale.SpinLock
	head  *mtrace.Cell
	tail  *mtrace.Cell
	items map[int64]*mtrace.Cell
}

type vma struct {
	cell *mtrace.Cell // mapping descriptor version
	anon bool
	inum int64
	foff int64
	wr   bool
}

type proc struct {
	fdLock  *scale.SpinLock
	slots   map[int64]*fdslot
	mmapSem *mtrace.Cell // rwsem: read and write acquisitions both write it
	vmaTree *mtrace.Cell // rbtree root version; written by map/unmap
	vmas    map[int64]*vma
	anon    map[int64]*mtrace.Cell
}

// Kern is the Linux-like kernel instance.
type Kern struct {
	mem      *mtrace.Memory
	dirLock  *scale.SpinLock
	dentries map[int64]*dentry
	nextIno  *mtrace.Cell
	nextPipe int64
	inodes   map[int64]*inode
	pipes    map[int64]*pipe
	procs    [2]*proc
}

var _ kernel.Kernel = (*Kern)(nil)

// New returns an empty Linux-like kernel over a fresh traced memory.
func New() *Kern {
	mem := mtrace.NewMemory()
	k := &Kern{
		mem:      mem,
		dirLock:  scale.NewSpinLock(mem, "dir.lock"),
		dentries: map[int64]*dentry{},
		nextIno:  mem.NewCell("inode_table.next_ino", 1000),
		nextPipe: 2000,
		inodes:   map[int64]*inode{},
		pipes:    map[int64]*pipe{},
	}
	for i := range k.procs {
		k.procs[i] = &proc{
			fdLock:  scale.NewSpinLock(mem, fmt.Sprintf("proc%d.files.lock", i)),
			slots:   map[int64]*fdslot{},
			mmapSem: mem.NewCellf(0, "proc%d.mmap_sem", i),
			vmaTree: mem.NewCellf(0, "proc%d.vma_tree", i),
			vmas:    map[int64]*vma{},
			anon:    map[int64]*mtrace.Cell{},
		}
	}
	return k
}

// Name implements kernel.Kernel.
func (k *Kern) Name() string { return "linux" }

// Memory implements kernel.Kernel. The maps whose entries gate a traced
// access (fget's slot lookup, the mmap address scan) are set through the
// memory, as are the plain fields of vma and fdslot and the pipe id counter:
// a stale entry would change the access pattern of the next replay.
func (k *Kern) Memory() *mtrace.Memory { return k.mem }

func (k *Kern) dentry(name int64) *dentry {
	d, ok := k.dentries[name]
	if !ok {
		d = &dentry{
			refcnt: k.mem.NewCellf(0, "dentry[%s].refcnt", kernel.Fname(name)),
			inum:   k.mem.NewCellf(0, "dentry[%s].inum", kernel.Fname(name)),
		}
		k.dentries[name] = d
	}
	return d
}

func (k *Kern) inode(inum int64) *inode {
	ino, ok := k.inodes[inum]
	if !ok {
		ino = &inode{
			nlink: k.mem.NewCellf(0, "inode[%d].nlink", inum),
			len:   k.mem.NewCellf(0, "inode[%d].len", inum),
			mutex: scale.NewSpinLock(k.mem, fmt.Sprintf("inode[%d].mutex", inum)),
			pages: map[int64]*mtrace.Cell{},
		}
		k.inodes[inum] = ino
	}
	return ino
}

func (ino *inode) page(mem *mtrace.Memory, inum, idx int64) *mtrace.Cell {
	p, ok := ino.pages[idx]
	if !ok {
		p = mem.NewCellf(0, "page[%d:%d]", inum, idx)
		ino.pages[idx] = p
	}
	return p
}

func (k *Kern) newPipe(id int64) *pipe {
	p := &pipe{
		id:    id,
		lock:  scale.NewSpinLock(k.mem, fmt.Sprintf("pipe[%d].lock", id)),
		head:  k.mem.NewCellf(0, "pipe[%d].head", id),
		tail:  k.mem.NewCellf(0, "pipe[%d].tail", id),
		items: map[int64]*mtrace.Cell{},
	}
	mtrace.SetKey(k.mem, k.pipes, id, p)
	return p
}

func (p *pipe) item(mem *mtrace.Memory, seq int64) *mtrace.Cell {
	c, ok := p.items[seq]
	if !ok {
		c = mem.NewCellf(0, "pipe[%d].item[%d]", p.id, seq)
		p.items[seq] = c
	}
	return c
}

// dget looks a name up in the dcache, bumping and dropping the dentry
// reference count like Linux's path walk; the write is the conflict §6.2
// highlights. It returns the bound inode number (0 when unbound).
func (k *Kern) dget(core int, name int64) int64 {
	d := k.dentry(name)
	d.refcnt.Add(core, 1)
	inum := d.inum.Load(core)
	d.refcnt.Add(core, -1)
	return inum
}

// fget resolves a descriptor, bumping the struct-file refcount (RCU table
// lookup reads only the slot cell, but the refcount bump is a write).
func (k *Kern) fget(core int, pr int, fd int64) *file {
	p := k.procs[pr]
	s, ok := p.slots[fd]
	if !ok {
		return nil
	}
	if s.cell.Load(core) == 0 {
		return nil
	}
	s.f.refcnt.Add(core, 1)
	return s.f
}

func (k *Kern) fput(core int, f *file) { f.refcnt.Add(core, -1) }

// allocFD installs f at the lowest free descriptor under the table lock.
func (k *Kern) allocFD(core int, pr int, f *file) int64 {
	p := k.procs[pr]
	p.fdLock.Acquire(core)
	defer p.fdLock.Release(core)
	for fd := int64(0); ; fd++ {
		s, ok := p.slots[fd]
		if !ok {
			s = &fdslot{cell: k.mem.NewCellf(0, "proc%d.fd[%d]", pr, fd)}
			mtrace.SetKey(k.mem, p.slots, fd, s)
		}
		if s.cell.Load(core) == 0 {
			mtrace.SetVar(k.mem, &s.f, f)
			s.cell.Store(core, 1)
			return fd
		}
	}
}

// Apply implements kernel.Kernel; it builds initial state untraced.
func (k *Kern) Apply(s kernel.Setup) {
	for _, si := range s.Inodes {
		ino := k.inode(si.Inum)
		ino.nlink.Poke(int64(si.ExtraLinks))
		ino.len.Poke(si.Len)
		for pg, val := range si.Pages {
			ino.page(k.mem, si.Inum, pg).Poke(val)
		}
	}
	for _, sf := range s.Files {
		nameID, _ := kernel.ParseFname(sf.Name)
		k.dentry(nameID).inum.Poke(sf.Inum)
		ino := k.inode(sf.Inum)
		ino.nlink.Poke(ino.nlink.Peek() + 1)
	}
	for _, sp := range s.Pipes {
		p := k.newPipe(sp.ID)
		for i, v := range sp.Items {
			p.item(k.mem, int64(i)).Poke(v)
		}
		p.head.Poke(0)
		p.tail.Poke(int64(len(sp.Items)))
	}
	for _, sd := range s.FDs {
		p := k.procs[sd.Proc]
		f := &file{
			refcnt: k.mem.NewCellf(1, "file[p%d:%d].refcnt", sd.Proc, sd.FD),
			off:    k.mem.NewCellf(sd.Off, "file[p%d:%d].off", sd.Proc, sd.FD),
		}
		if sd.Pipe {
			pp, ok := k.pipes[sd.PipeID]
			if !ok {
				pp = k.newPipe(sd.PipeID)
			}
			f.pipe = pp
			f.wend = sd.WriteEnd
		} else {
			f.inum = sd.Inum
			k.inode(sd.Inum) // ensure the inode exists
		}
		// The live slot cell is born at 1 and never journaled, so a reset
		// cannot revive its old value; it drops the entry instead.
		slot := &fdslot{cell: k.mem.NewCellf(1, "proc%d.fd[%d]", sd.Proc, sd.FD), f: f}
		mtrace.SetKey(k.mem, p.slots, sd.FD, slot)
	}
	for _, sv := range s.VMAs {
		p := k.procs[sv.Proc]
		v := &vma{
			cell: k.mem.NewCellf(1, "proc%d.vma[%d]", sv.Proc, sv.Page),
			anon: sv.Anon, inum: sv.Inum, foff: sv.Foff, wr: sv.Writable,
		}
		mtrace.SetKey(k.mem, p.vmas, sv.Page, v)
		if sv.Anon {
			c := k.mem.NewCellf(sv.Val, "proc%d.anonpage[%d]", sv.Proc, sv.Page)
			mtrace.SetKey(k.mem, p.anon, sv.Page, c)
		} else {
			k.inode(sv.Inum)
		}
		p.vmaTree.Poke(p.vmaTree.Peek() + 1)
	}
}
