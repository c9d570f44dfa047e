// Package unix is the in-memory Unix kernel (ramfs plus virtual memory)
// both POSIX implementations under test share. §6 of the paper presents sv6
// as Linux's POSIX semantics rebuilt on scalable structures; here the 18
// system calls are written once, and the difference is a Design: the list of
// sharing structures a kernel is built from, each keeping its kernel's exact
// traced loads, stores and cell names. Linux mirrors the conflict sources
// §6.2 found in Linux 3.8; SV6 replaces each with a substrate §6.3 describes
// for ScaleFS and RadixVM (package scale). What SV6 leaves shared are the
// deliberate §6.4 trade-offs: idempotent updates (two lseeks to one offset,
// two mmaps of one fixed page) and the pipe's count of open ends.
package unix

import (
	"fmt"

	"repro/internal/kernel"
	"repro/internal/mtrace"
	"repro/internal/scale"
)

// A Design is the list of structures a kernel shares, each field replacing
// one of Linux's with sv6's. The fields are unexported: the designs are the
// values below.
type Design struct {
	name string
	// hashDir: Linux's dentries under one dir.lock, every lookup bumping a
	// refcount, or sv6's per-bucket locks (scale.HashDir), whose lookups
	// write nothing and whose updates check optimistically before locking.
	hashDir bool
	// coreInums: Linux's global inode_table.next_ino, or sv6's per-core
	// scale.IDAlloc, whose numbers are never reused.
	coreInums bool
	// refcache: a link count is one shared cell, or Refcache's per-core
	// deltas.
	refcache bool
	// radixData: a length cell plus pages under inode[N].mutex, or radixes of
	// pages and of page presence: readers probe presence, and a length is a
	// scan of it ("layer scalability").
	radixData bool
	// slotFDs: Linux's lowest-FD table under a lock, each use of a descriptor
	// bumping its struct file's refcount, or sv6's per-slot cells, per-core
	// O_ANYFD partitions and the shared hint of a faithful lowest-FD scan.
	slotFDs bool
	// fifoPipes: one lock around both cursors, or scale.FIFO plus a count of
	// open ends.
	fifoPipes bool
	// optimisticSeek: lseek stores only an offset that changes.
	optimisticSeek bool
	// radixVM: Linux's mmap_sem (the page fault's read mode an atomic write
	// too) and VMA tree, or RadixVM's cell per page and per-core partitions
	// of the free pages.
	radixVM bool
}

var (
	// Linux is the Linux-3.8-like baseline: spec Impl "linux".
	Linux = Design{name: "linux"}
	// SV6 is Linux's semantics on sv6's structures: spec Impl "sv6".
	SV6 = Design{name: "sv6", hashDir: true, coreInums: true, refcache: true, radixData: true,
		slotFDs: true, fifoPipes: true, optimisticSeek: true, radixVM: true}
	// SV6SharedLinkCount is SV6 with Linux's link counts: statbench's
	// "shared st_nlink", where fstat is cheaper and link and unlink collide.
	SV6SharedLinkCount = func() Design { d := SV6; d.refcache = false; return d }()
)

// A lock is Linux's spinlock or semaphore, or noLock where sv6 takes none.
type lock interface {
	Acquire(core int)
	Release(core int)
}

type noLock struct{}

func (noLock) Acquire(int) {}
func (noLock) Release(int) {}

type inode struct {
	nlink linkCount
	data  fileData
	radix radixPages // data, on sv6: allocated with the inode
}

// A file is an open file description, bound to its descriptor's slot.
type file struct {
	slot   *mtrace.Cell // the slot's own cache line: live while nonzero
	refcnt *mtrace.Cell // Linux's struct-file count; nil on sv6
	off    *mtrace.Cell
	pipe   *pipe
	wend   bool
	inum   int64
}

// ref takes (1) or drops (-1) a reference, where the design counts them.
func (f *file) ref(core int, delta int64) {
	if f.refcnt != nil {
		f.refcnt.Add(core, delta)
	}
}

// release drops the descriptor's own reference: close.
func (f *file) release(core int) {
	f.ref(core, -1)
	if f.pipe != nil && f.pipe.refs != nil { // shared on purpose (§6.4)
		f.pipe.refs.Add(core, -1)
	}
}

// A pipe is scale.FIFO or Linux's lockedPipe, named pipe[<id>].
type pipe struct {
	queue
	id   int64
	refs *mtrace.Cell // sv6's count of open ends; nil on Linux
}

type queue interface {
	Len(core int) int64
	Send(core int, v int64) int64
	Recv(core int) (seq, v int64, ok bool)
}

type vma struct {
	cell *mtrace.Cell // mapping descriptor: live while nonzero
	anon bool
	inum int64
	foff int64
	wr   bool
}

type proc struct {
	id       int
	slots    map[int64]*file
	fdLock   lock
	nextFD   *scale.IDAlloc // sv6's O_ANYFD partitions: fd = 1000 + id
	lowHint  *mtrace.Cell
	mmapSem  lock
	vmaTree  *mtrace.Cell
	nextAddr *scale.IDAlloc
	vmas     map[int64]*vma
	anon     map[int64]*mtrace.Cell
	// What Apply built for setup descriptors, mappings and anonymous pages,
	// by descriptor and page, kept for every later Apply (see Apply).
	setupFiles map[int64]*file
	setupVMAs  map[int64]*vma
	setupAnon  map[int64]*mtrace.Cell
}

// Kern is a kernel instance of one Design.
type Kern struct {
	mem      *mtrace.Memory
	d        Design
	dir      directory
	nextIno  *mtrace.Cell   // Linux's inode allocator
	inums    *scale.IDAlloc // sv6's
	inodes   map[int64]*inode
	pipes    map[int64]*pipe
	nextPipe int64
	procs    [2]*proc
	// setupPipes is what Apply built for setup pipes, by id (see Apply).
	setupPipes map[int64]*pipe
}

// New returns an empty kernel of design d over a fresh traced memory.
func New(d Design) *Kern {
	mem := mtrace.NewMemory()
	k := &Kern{mem: mem, d: d, inodes: map[int64]*inode{}, pipes: map[int64]*pipe{}, nextPipe: 2000,
		setupPipes: map[int64]*pipe{}}
	if d.hashDir {
		k.dir = hashDir{scale.NewHashDir(mem, "dir", 8192)}
	} else {
		k.dir = &dcache{mem: mem, lock: scale.NewSpinLock(mem, "dir.lock"), dentries: map[int64]*dentry{}}
	}
	if d.coreInums {
		k.inums = scale.NewIDAlloc(mem, "ialloc", 1000)
	} else {
		k.nextIno = mem.NewCell("inode_table.next_ino", 1000)
	}
	for i := range k.procs {
		p := &proc{id: i, slots: map[int64]*file{}, vmas: map[int64]*vma{}, anon: map[int64]*mtrace.Cell{},
			setupFiles: map[int64]*file{}, setupVMAs: map[int64]*vma{}, setupAnon: map[int64]*mtrace.Cell{}}
		p.fdLock, p.mmapSem = noLock{}, noLock{}
		if d.slotFDs {
			p.nextFD = scale.NewIDAlloc(mem, fmt.Sprintf("proc%d.fd", i), 0)
			p.lowHint = mem.NewCellf(0, "proc%d.fd.lowhint", i)
		} else {
			p.fdLock = scale.NewSpinLock(mem, fmt.Sprintf("proc%d.files.lock", i))
		}
		if d.radixVM {
			p.nextAddr = scale.NewIDAlloc(mem, fmt.Sprintf("proc%d.vm", i), 0)
		} else {
			p.mmapSem = scale.NewSpinLock(mem, fmt.Sprintf("proc%d.mmap_sem", i))
			p.vmaTree = mem.NewCellf(0, "proc%d.vma_tree", i)
		}
		k.procs[i] = p
	}
	return k
}

// Name implements kernel.Kernel.
func (k *Kern) Name() string { return k.d.name }

// Memory implements kernel.Kernel. Map entries a traced access is gated on,
// a vma's fields and the pipe id counter are set through it.
func (k *Kern) Memory() *mtrace.Memory { return k.mem }

// inode returns inum's inode, building it on first touch. An inode built
// inside a snapshot region survives Reset on both designs: every cell it is
// built with is born holding its initial value (a radix's interior nodes
// born present, see scale.Radix.Materialize), and what is born later — a
// page, a Refcache delta, a radix leaf — holds the journal-restored zero it
// would be born with, so a surviving inode is a fresh one to every later
// setup group, and every later pair of a long-lived Replayer. A setup's
// descriptors, pipes, mappings and anonymous pages survive the same way,
// but not the map entries that reach them (see Apply).
func (k *Kern) inode(inum int64) *inode {
	ino, ok := k.inodes[inum]
	if ok {
		return ino
	}
	ino = &inode{}
	if k.d.refcache {
		ino.nlink = refcache{scale.NewRefcache(k.mem, fmt.Sprintf("inode[%d].nlink", inum), 0)}
	} else {
		ino.nlink = sharedCount{scale.NewSharedCounter(k.mem, fmt.Sprintf("inode[%d].nlink", inum), 0)}
	}
	if k.d.radixData {
		ino.radix.init(k.mem, inum)
		ino.data = &ino.radix
	} else {
		ino.data = newPageCells(k.mem, inum)
	}
	k.inodes[inum] = ino
	return ino
}

// newInode allocates a created name's inode and makes the creator's writes.
func (k *Kern) newInode(core int) int64 {
	var inum int64
	if k.inums != nil {
		inum = k.inums.Alloc(core)
	} else {
		inum = k.nextIno.Add(core, 1)
	}
	ino := k.inode(inum)
	ino.nlink.born(core)
	ino.data.born(core)
	return inum
}

// newFile is a description at off, named by the formats over args; a count
// is born with its descriptor's reference.
func (k *Kern) newFile(refcnt, offName string, off int64, args ...any) *file {
	f := &file{}
	if !k.d.slotFDs {
		f.refcnt = k.mem.NewCellf(1, refcnt, args...)
	}
	f.off = k.mem.NewCellf(off, offName, args...)
	return f
}

// newPipe builds pipe id, empty and unlinked.
func (k *Kern) newPipe(id int64) *pipe {
	p := &pipe{id: id}
	if k.d.fifoPipes {
		// Readers own head and writers tail, so read||write of a non-empty
		// pipe is conflict-free (§4's weak-ordering discussion).
		p.queue = scale.NewFIFO(k.mem, fmt.Sprintf("pipe[%d]", id))
		p.refs = k.mem.NewCellf(0, "pipe[%d].refs", id)
	} else {
		p.queue = &lockedPipe{
			mem: k.mem, id: id, items: map[int64]*mtrace.Cell{},
			lock: scale.NewSpinLock(k.mem, fmt.Sprintf("pipe[%d].lock", id)),
			head: k.mem.NewCellf(0, "pipe[%d].head", id), tail: k.mem.NewCellf(0, "pipe[%d].tail", id),
		}
	}
	return p
}

// get resolves a descriptor by reading its slot cell.
func (p *proc) get(core int, fd int64) *file {
	f, ok := p.slots[fd]
	if !ok || f.slot.Load(core) == 0 {
		return nil
	}
	return f
}

// allocFD installs f: under Linux's table lock at the lowest free
// descriptor, whatever anyfd says, or in sv6's per-core partition or scan.
// It returns -1, installing nothing, when a lowest-FD scan finds no free
// descriptor below kernel.MaxFD: the caller's EMFILE.
func (k *Kern) allocFD(core int, p *proc, f *file, anyfd bool) int64 {
	switch {
	case !k.d.slotFDs:
		p.fdLock.Acquire(core)
		defer p.fdLock.Release(core)
		return k.lowestFD(core, p, f)
	case anyfd:
		fd := 1000 + p.nextFD.Alloc(core)
		p.bind(k.mem, core, fd, k.mem.NewCellf(0, "proc%d.fd[%d]", p.id, fd), f)
		return fd
	default:
		_ = p.lowHint.Add(core, 0) // read-modify-write of the shared cursor
		fd := k.lowestFD(core, p, f)
		p.lowHint.Add(core, 1)
		return fd
	}
}

func (k *Kern) lowestFD(core int, p *proc, f *file) int64 {
	for fd := int64(0); fd < kernel.MaxFD; fd++ {
		g, ok := p.slots[fd]
		var slot *mtrace.Cell
		if ok {
			slot = g.slot
		} else {
			slot = k.mem.NewCellf(0, "proc%d.fd[%d]", p.id, fd)
		}
		// Linux reads even the slot it just made; sv6 knows it is free.
		if (ok || !k.d.slotFDs) && slot.Load(core) != 0 {
			continue
		}
		p.bind(k.mem, core, fd, slot, f)
		return fd
	}
	return -1
}

// bind makes slot, fd's cache line, f's; the slots entry is set through the
// memory, since a stale one would redirect a later lookup.
func (p *proc) bind(mem *mtrace.Memory, core int, fd int64, slot *mtrace.Cell, f *file) {
	f.slot = slot
	slot.Store(core, 1)
	mtrace.SetKey(mem, p.slots, fd, f)
}

// Apply implements kernel.Kernel; it builds initial state untraced.
//
// What it builds for a setup's descriptors, pipes, mappings and anonymous
// pages is kept, by identity — (process, descriptor), pipe id, (process,
// page) — whose cell names depend on it alone, and the next setup naming
// the identity links the same object again (kernel.Admit refuses a setup
// naming one twice). Its map entry is not kept: a stale one would change
// what later calls read (lowestFD loads a slot only where an entry is), so
// each is set through the memory and a reset drops it, and an unlinked
// object is unseen. The reset also returns every cell the object holds to
// the value it was born with, as it does an inode's (see inode), so linking
// it again pokes, journaled, only the cells whose born value a setup
// chooses (an offset, a page's value, a backlog) and sets the plain fields.
func (k *Kern) Apply(s kernel.Setup) {
	for _, si := range s.Inodes {
		ino := k.inode(si.Inum)
		ino.nlink.Poke(int64(si.ExtraLinks))
		ino.data.apply(si)
	}
	for _, sf := range s.Files {
		name, _ := kernel.ParseFname(sf.Name)
		k.dir.poke(name, sf.Inum)
		ino := k.inode(sf.Inum)
		ino.nlink.Poke(ino.nlink.Peek() + 1)
	}
	for _, sp := range s.Pipes {
		k.setupPipe(sp.ID, sp.Items)
	}
	for _, sd := range s.FDs {
		p := k.procs[sd.Proc]
		f, ok := p.setupFiles[sd.FD]
		if ok {
			f.off.Poke(sd.Off)
		} else {
			f = k.newFile("file[p%d:%d].refcnt", "file[p%d:%d].off", sd.Off, sd.Proc, sd.FD)
			f.slot = k.mem.NewCellf(1, "proc%d.fd[%d]", sd.Proc, sd.FD)
			p.setupFiles[sd.FD] = f
		}
		if sd.Pipe {
			pp, ok := k.pipes[sd.PipeID]
			if !ok {
				pp = k.setupPipe(sd.PipeID, nil)
			}
			f.pipe, f.wend, f.inum = pp, sd.WriteEnd, 0
			if pp.refs != nil {
				pp.refs.Poke(pp.refs.Peek() + 1)
			}
		} else {
			f.pipe, f.wend, f.inum = nil, false, sd.Inum
			k.inode(sd.Inum)
		}
		mtrace.SetKey(k.mem, p.slots, sd.FD, f)
	}
	for _, sv := range s.VMAs {
		p := k.procs[sv.Proc]
		v, ok := p.setupVMAs[sv.Page]
		if !ok {
			v = &vma{cell: k.mem.NewCellf(1, "proc%d.vma[%d]", sv.Proc, sv.Page)}
			p.setupVMAs[sv.Page] = v
		}
		v.anon, v.inum, v.foff, v.wr = sv.Anon, sv.Inum, sv.Foff, sv.Writable
		mtrace.SetKey(k.mem, p.vmas, sv.Page, v)
		if sv.Anon {
			c, ok := p.setupAnon[sv.Page]
			if ok {
				c.Poke(sv.Val)
			} else {
				c = k.mem.NewCellf(sv.Val, "proc%d.anonpage[%d]", sv.Proc, sv.Page)
				p.setupAnon[sv.Page] = c
			}
			mtrace.SetKey(k.mem, p.anon, sv.Page, c)
		} else {
			k.inode(sv.Inum)
		}
		if p.vmaTree != nil {
			p.vmaTree.Poke(p.vmaTree.Peek() + 1)
		}
	}
}

// setupPipe links pipe id for Apply, holding items and no open end: the
// pipe an earlier setup built for id, born again, or a new one it keeps.
func (k *Kern) setupPipe(id int64, items []int64) *pipe {
	p, ok := k.setupPipes[id]
	if !ok {
		p = k.newPipe(id)
		k.setupPipes[id] = p
	}
	for _, v := range items {
		p.Send(0, v) // untraced: Apply runs before the traced region
	}
	mtrace.SetKey(k.mem, k.pipes, id, p)
	return p
}
