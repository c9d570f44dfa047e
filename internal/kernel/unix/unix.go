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

// A file is an open file description, bound to a descriptor's slot.
type file struct {
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

// A vma is a mapping descriptor, the value of its page's entry.
type vma struct {
	anon bool
	inum int64
	foff int64
	wr   bool
}

type proc struct {
	id       int
	slots    *mtrace.Map[int64, *file] // procP.fd[N]: the slot's cache line
	fdLock   lock
	nextFD   *scale.IDAlloc // sv6's O_ANYFD partitions: fd = 1000 + id
	lowHint  *mtrace.Cell
	mmapSem  lock
	vmaTree  *mtrace.Cell
	nextAddr *scale.IDAlloc
	vmas     *mtrace.Map[int64, vma] // procP.vma[N]
	anon     map[int64]*mtrace.Cell  // by page, built on first touch
}

// Kern is a kernel instance of one Design.
type Kern struct {
	mem      *mtrace.Memory
	d        Design
	dir      directory
	nextIno  *mtrace.Cell   // Linux's inode allocator
	inums    *scale.IDAlloc // sv6's
	inodes   map[int64]*inode
	pipes    map[int64]*pipe // setup pipes, by id (see Apply)
	nextPipe int64
	procs    [2]*proc
}

// New returns an empty kernel of design d over a fresh traced memory.
func New(d Design) *Kern {
	mem := mtrace.NewMemory()
	k := &Kern{mem: mem, d: d, inodes: map[int64]*inode{}, pipes: map[int64]*pipe{}, nextPipe: 2000}
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
		p := &proc{id: i, slots: mtrace.NewMap[int64, *file](mem, fmt.Sprintf("proc%d.fd", i)),
			vmas: mtrace.NewMap[int64, vma](mem, fmt.Sprintf("proc%d.vma", i)), anon: map[int64]*mtrace.Cell{}}
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

// Memory implements kernel.Kernel. The descriptor and mapping tables are
// its Maps, and the pipe id counter is set through it.
func (k *Kern) Memory() *mtrace.Memory { return k.mem }

// inode returns inum's inode, building it on first touch. An inode built
// inside a snapshot region survives Reset on both designs: every cell it is
// built with is born holding its initial value (a radix's interior nodes
// born present, see scale.Radix.Materialize), and what is born later — a
// page, a Refcache delta, a radix leaf — holds the journal-restored zero it
// would be born with, so a surviving inode is a fresh one to every later
// setup group, and every later pair of a long-lived Replayer. A setup's
// descriptors, pipes and anonymous pages survive the same way (see Apply).
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

// get resolves a descriptor by loading its slot, bound or not.
func (p *proc) get(core int, fd int64) *file {
	f, _ := p.slots.Get(core, fd)
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
		return p.lowestFD(core, f)
	case anyfd:
		fd := 1000 + p.nextFD.Alloc(core)
		p.slots.Set(core, fd, f)
		return fd
	default:
		_ = p.lowHint.Add(core, 0) // read-modify-write of the shared cursor
		fd := p.lowestFD(core, f)
		p.lowHint.Add(core, 1)
		return fd
	}
}

// lowestFD binds f to the first free slot, loading every slot up to it.
func (p *proc) lowestFD(core int, f *file) int64 {
	for fd := int64(0); fd < kernel.MaxFD; fd++ {
		if p.get(core, fd) == nil {
			p.slots.Set(core, fd, f)
			return fd
		}
	}
	return -1
}

// Apply implements kernel.Kernel; it builds initial state untraced, into a
// kernel that is fresh or reset.
//
// What it builds for a setup's descriptors, pipes and anonymous pages is
// kept, by identity — (process, descriptor), pipe id, (process, page) —
// whose cell names depend on it alone, and the next setup naming the
// identity links the same object again (kernel.Admit refuses a setup naming
// one twice). A descriptor's file is its slot's value, which a reset makes
// absent but keeps (mtrace.Map's Poke and Peek); a pipe or an anonymous page
// is reachable only through a descriptor or a mapping. The reset also
// returns every cell the object holds to the value it was born with, as it
// does an inode's (see inode), so linking it again pokes, journaled, only
// the cells whose born value a setup chooses (an offset, a page's value, a
// backlog) and sets the plain fields.
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
		p := k.setupPipe(sp.ID)
		for _, v := range sp.Items {
			p.Send(0, v) // untraced: Apply runs before the traced region
		}
	}
	for _, sd := range s.FDs {
		p := k.procs[sd.Proc]
		f := p.slots.Peek(sd.FD)
		if f != nil {
			f.off.Poke(sd.Off)
		} else {
			f = k.newFile("file[p%d:%d].refcnt", "file[p%d:%d].off", sd.Off, sd.Proc, sd.FD)
		}
		if sd.Pipe {
			pp := k.setupPipe(sd.PipeID)
			f.pipe, f.wend, f.inum = pp, sd.WriteEnd, 0
			if pp.refs != nil {
				pp.refs.Poke(pp.refs.Peek() + 1)
			}
		} else {
			f.pipe, f.wend, f.inum = nil, false, sd.Inum
			k.inode(sd.Inum)
		}
		p.slots.Poke(sd.FD, f)
	}
	for _, sv := range s.VMAs {
		p := k.procs[sv.Proc]
		p.vmas.Poke(sv.Page, vma{anon: sv.Anon, inum: sv.Inum, foff: sv.Foff, wr: sv.Writable})
		if sv.Anon {
			k.anonPage(p, sv.Page).Poke(sv.Val)
		} else {
			k.inode(sv.Inum)
		}
		if p.vmaTree != nil {
			p.vmaTree.Poke(p.vmaTree.Peek() + 1)
		}
	}
}

// setupPipe is pipe id as a setup links it, with no item and no open end:
// the pipe an earlier setup built for id, born again, or a new one it keeps.
func (k *Kern) setupPipe(id int64) *pipe {
	p, ok := k.pipes[id]
	if !ok {
		p = k.newPipe(id)
		k.pipes[id] = p
	}
	return p
}
