// Package svsix is the sv6-like kernel: the same POSIX semantics as the
// monokernel, rebuilt on the scalable substrates §6.3 of the paper
// describes for ScaleFS and RadixVM:
//
//   - the directory is a hash table with independent per-bucket locks, and
//     name lookups are lock-free with no reference-count writes; its 8192
//     buckets fix which names collide, and each is built by the first
//     operation that selects it (scale.HashDir),
//   - link counts are Refcache counters (per-core deltas),
//   - descriptor lookup touches only the slot's own cache line,
//   - descriptor allocation uses per-core partitions of the FD space
//     (O_ANYFD) — the lowest-FD rule is also available for the openbench
//     comparison, implemented with a shared scan like any faithful
//     implementation must,
//   - inode numbers come from per-core allocators and are never reused
//     (like the descriptor and address partitions, a core's counter is
//     born on that core's first allocation: scale.IDAlloc),
//   - lseek precedes pessimism with optimism: an offset update equal to
//     the current value writes nothing,
//   - rename avoids writing the destination when it already points at the
//     source's inode and checks name existence without reading inodes,
//   - pages live in radix arrays; reads probe per-page presence instead of
//     the shared length where possible,
//   - a pipe is a scale.FIFO: head and tail on separate cache lines, so
//     reads and writes of a non-empty pipe are conflict-free,
//   - the address space is a RadixVM-style radix array: operations on
//     different pages touch disjoint cells, with no process-wide lock.
//
// Remaining shared cells are the deliberate §6.4 trade-offs: idempotent
// updates (lseek to the same offset still reads, mmap of the same fixed
// range still writes) and the pipe descriptor reference counts.
package svsix

import (
	"fmt"

	"repro/internal/kernel"
	"repro/internal/mtrace"
	"repro/internal/scale"
)

// linkCount is what the kernel asks of an inode's link count;
// scale.Refcache (the default) and scale.SharedCounter
// (Opts.SharedLinkCount) both provide it.
type linkCount interface {
	Inc(core int, delta int64)
	Read(core int) int64
	Peek() int64
	Poke(v int64)
}

type inode struct {
	nlink linkCount
	pages *scale.Radix
	// pagePresent tracks which pages are within bounds. ScaleFS keeps no
	// shared length cell at all: readers probe per-page presence, and
	// length-returning operations reconcile it by scanning the radix
	// ("layer scalability", §6.3), so concurrent writes extending the
	// file stay conflict-free with reads of other pages.
	pagePresent *scale.Radix
}

// length reconciles the file length from the per-page presence radix.
func (ino *inode) length(core int, maxScan int64) int64 {
	var n int64
	for pg := int64(0); pg < maxScan; pg++ {
		if ino.pagePresent.Get(core, pg) != 0 {
			n = pg + 1
		}
	}
	return n
}

type file struct {
	slot *mtrace.Cell // the descriptor slot's own cache line
	off  *mtrace.Cell
	pipe *pipe
	wend bool
	inum int64
}

// pipe is a scale.FIFO labeled pipe[<id>] — readers own head, writers own
// tail, so read||write of a non-empty pipe is conflict-free (§4's
// weak-ordering discussion) — plus refs, the deliberately shared pipe-FD
// reference count that §6.4 reports as a difficult-to-scale case.
type pipe struct {
	*scale.FIFO
	id   int64 // names the cells, so reports tell two pipes apart
	refs *mtrace.Cell
}

type vmaCell struct {
	cell *mtrace.Cell // mapping descriptor: one cache line per page
	anon bool
	inum int64
	foff int64
	wr   bool
}

type proc struct {
	slots map[int64]*file
	// nextFD are the per-core O_ANYFD partitions: fd = base + core.
	nextFD *scale.IDAlloc
	// lowHint is the shared cell a faithful lowest-FD allocator must
	// maintain; only the lowest-FD mode touches it.
	lowHint *mtrace.Cell
	// nextAddr are per-core partitions of the free address space for
	// non-fixed mmap (RadixVM picks addresses without a shared cursor).
	nextAddr *scale.IDAlloc
	vmas     map[int64]*vmaCell
	anon     map[int64]*mtrace.Cell
}

// Opts selects svsix build variants for the evaluation.
type Opts struct {
	// SharedLinkCount replaces Refcache link counts with single shared
	// counters — statbench's "shared st_nlink" configuration, which
	// makes fstat cheaper but link/unlink non-scalable.
	SharedLinkCount bool
}

// Kern is the sv6-like kernel instance.
type Kern struct {
	mem      *mtrace.Memory
	opts     Opts
	dir      *scale.HashDir
	inoAlloc *scale.IDAlloc
	inodes   map[int64]*inode
	pipes    map[int64]*pipe
	nextPipe int64
	procs    [2]*proc
}

var _ kernel.Kernel = (*Kern)(nil)

// New returns an empty sv6-like kernel over a fresh traced memory.
func New() *Kern { return NewOpts(Opts{}) }

// NewOpts returns an sv6-like kernel with the given build variant.
func NewOpts(opts Opts) *Kern {
	mem := mtrace.NewMemory()
	k := &Kern{
		mem:      mem,
		opts:     opts,
		dir:      scale.NewHashDir(mem, "dir", 8192),
		inoAlloc: scale.NewIDAlloc(mem, "ialloc", 1000),
		inodes:   map[int64]*inode{},
		pipes:    map[int64]*pipe{},
		nextPipe: 2000,
	}
	for i := range k.procs {
		k.procs[i] = &proc{
			slots:    map[int64]*file{},
			nextFD:   scale.NewIDAlloc(mem, fmt.Sprintf("proc%d.fd", i), 0),
			lowHint:  mem.NewCellf(0, "proc%d.fd.lowhint", i),
			nextAddr: scale.NewIDAlloc(mem, fmt.Sprintf("proc%d.vm", i), 0),
			vmas:     map[int64]*vmaCell{},
			anon:     map[int64]*mtrace.Cell{},
		}
	}
	return k
}

// Name implements kernel.Kernel.
func (k *Kern) Name() string { return "sv6" }

// Memory implements kernel.Kernel. What is not a cell — map entries a
// lookup is gated on, the vmaCell fields, the pipe id counter — is set
// through the memory.
func (k *Kern) Memory() *mtrace.Memory { return k.mem }

func (k *Kern) inode(inum int64) *inode {
	ino, ok := k.inodes[inum]
	if !ok {
		ino = &inode{
			pages:       scale.NewRadix(k.mem, fmt.Sprintf("inode[%d].pages", inum), 16),
			pagePresent: scale.NewRadix(k.mem, fmt.Sprintf("inode[%d].present", inum), 16),
		}
		// Interior nodes exist up front (RadixVM's eager allocation), so
		// concurrent first writes to different pages stay conflict-free.
		ino.pages.Materialize(maxScan)
		ino.pagePresent.Materialize(maxScan)
		if k.opts.SharedLinkCount {
			ino.nlink = scale.NewSharedCounter(k.mem, fmt.Sprintf("inode[%d].nlink", inum), 0)
		} else {
			ino.nlink = scale.NewRefcache(k.mem, fmt.Sprintf("inode[%d].nlink", inum), 0)
		}
		// Reset must drop the inode entirely rather than keep it with
		// journal-restored cells: the restored radix interior cells read 0,
		// so a kept inode would re-materialize them through traced Sets —
		// writes a fresh kernel (which Pokes them in Materialize here)
		// never performs, changing conflict verdicts. Recreating the inode
		// reruns this constructor and is exactly fresh.
		mtrace.SetKey(k.mem, k.inodes, inum, ino)
	}
	return ino
}

func (k *Kern) newPipe(id int64) *pipe {
	p := &pipe{FIFO: scale.NewFIFO(k.mem, fmt.Sprintf("pipe[%d]", id)), id: id}
	p.refs = k.mem.NewCellf(0, "pipe[%d].refs", id)
	mtrace.SetKey(k.mem, k.pipes, id, p)
	return p
}

// fget resolves a descriptor by reading only the slot cell — no reference
// count write (ScaleFS defers reclamation with Refcache epochs, so readers
// are conflict-free).
func (k *Kern) fget(core int, pr int, fd int64) *file {
	f, ok := k.procs[pr].slots[fd]
	if !ok || f.slot.Load(core) == 0 {
		return nil
	}
	return f
}

// allocFD installs f. anyfd uses the per-core partition (conflict-free);
// otherwise a faithful lowest-FD scan maintains the shared hint.
func (k *Kern) allocFD(core int, pr int, f *file, anyfd bool) int64 {
	p := k.procs[pr]
	// A stale slot entry would redirect a later fget to the wrong file (and
	// change its traced access pattern), so the slots are set through the
	// memory.
	if anyfd {
		fd := 1000 + p.nextFD.Alloc(core)
		f.slot = k.mem.NewCellf(0, "proc%d.fd[%d]", pr, fd)
		f.slot.Store(core, 1)
		mtrace.SetKey(k.mem, p.slots, fd, f)
		return fd
	}
	_ = p.lowHint.Add(core, 0) // shared lowest-FD cursor: read-modify-write
	for fd := int64(0); ; fd++ {
		g, ok := p.slots[fd]
		if ok && g.slot.Load(core) != 0 {
			continue
		}
		if !ok {
			f.slot = k.mem.NewCellf(0, "proc%d.fd[%d]", pr, fd)
		} else {
			f.slot = g.slot
		}
		f.slot.Store(core, 1)
		mtrace.SetKey(k.mem, p.slots, fd, f)
		p.lowHint.Add(core, 1)
		return fd
	}
}

// Apply implements kernel.Kernel; it builds initial state untraced.
func (k *Kern) Apply(s kernel.Setup) {
	for _, si := range s.Inodes {
		ino := k.inode(si.Inum)
		ino.nlink.Poke(int64(si.ExtraLinks))
		for pg := int64(0); pg < si.Len; pg++ {
			ino.pagePresent.Poke(pg, 1)
		}
		for pg, val := range si.Pages {
			ino.pages.Poke(pg, val)
			ino.pagePresent.Poke(pg, 1)
		}
	}
	for _, sf := range s.Files {
		id, _ := kernel.ParseFname(sf.Name)
		k.dir.PokeInsert(id, sf.Inum)
		ino := k.inode(sf.Inum)
		ino.nlink.Poke(ino.nlink.Peek() + 1)
	}
	for _, sp := range s.Pipes {
		k.newPipe(sp.ID).Seed(sp.Items)
	}
	for _, sd := range s.FDs {
		p := k.procs[sd.Proc]
		f := &file{
			slot: k.mem.NewCellf(1, "proc%d.fd[%d]", sd.Proc, sd.FD),
			off:  k.mem.NewCellf(sd.Off, "file[p%d:%d].off", sd.Proc, sd.FD),
		}
		if sd.Pipe {
			pp, ok := k.pipes[sd.PipeID]
			if !ok {
				pp = k.newPipe(sd.PipeID)
			}
			f.pipe = pp
			f.wend = sd.WriteEnd
			pp.refs.Poke(pp.refs.Peek() + 1)
		} else {
			f.inum = sd.Inum
			k.inode(sd.Inum)
		}
		// The slot cell is born live (1) and never journaled; a reset drops
		// the entry rather than revive it.
		mtrace.SetKey(k.mem, p.slots, sd.FD, f)
	}
	for _, sv := range s.VMAs {
		p := k.procs[sv.Proc]
		v := &vmaCell{
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
	}
}
