package unix

import (
	"testing"

	"repro/internal/kernel"
)

func apply(t *testing.T, k *Kern, s kernel.Setup) {
	t.Helper()
	k.Apply(s)
}

// Linux
// The lowest-FD rule across open, pipe and close.
func TestLowestFDRule(t *testing.T) {
	k := New(Linux)
	apply(t, k, &Setup{
		Files:  []SetupFile{{Name: 0, Inum: 1}},
		Inodes: []SetupInode{{Inum: 1}},
	})
	open := func() int64 {
		r := k.Exec(0, kernel.Call{Op: "open", Args: map[string]int64{"fname": 0}})
		if r.Code < 0 {
			t.Fatalf("open: %v", r)
		}
		return r.Code
	}
	if fd := open(); fd != 0 {
		t.Errorf("first open = %d", fd)
	}
	if fd := open(); fd != 1 {
		t.Errorf("second open = %d", fd)
	}
	k.Exec(0, kernel.Call{Op: "close", Args: map[string]int64{"fd": 0}})
	if fd := open(); fd != 0 {
		t.Errorf("open after close = %d, want lowest (0)", fd)
	}
	k.Exec(0, kernel.Call{Op: "close", Args: map[string]int64{"fd": 1}})
	r := k.Exec(0, kernel.Call{Op: "pipe", Args: map[string]int64{}})
	if r.V1 != 1 || r.V2 != 2 {
		t.Errorf("pipe fds = %d,%d, want 1,2", r.V1, r.V2)
	}
}

// O_TRUNC must zero dropped pages so later extension exposes holes, not
// stale data.
func TestTruncDropsPages(t *testing.T) {
	k := New(Linux)
	apply(t, k, &Setup{
		Files:  []SetupFile{{Name: 0, Inum: 1}},
		Inodes: []SetupInode{{Inum: 1, Len: 2, Pages: map[int64]int64{0: 21, 1: 22}}},
		FDs:    []SetupFD{{Proc: 0, FD: 0, Inum: 1}},
	})
	if r := k.Exec(0, kernel.Call{Op: "open", Args: map[string]int64{"fname": 0, "trunc": 1}}); r.Code < 0 {
		t.Fatal(r)
	}
	// Extend past the old pages: they must read back as zero.
	if r := k.Exec(0, kernel.Call{Op: "pwrite", Args: map[string]int64{"fd": 0, "off": 2, "val": 9}}); r.Code != 1 {
		t.Fatal(r)
	}
	if r := k.Exec(0, kernel.Call{Op: "pread", Args: map[string]int64{"fd": 0, "off": 0}}); r.Data != 0 {
		t.Errorf("stale page after trunc: %v", r)
	}
}

// Deliberate Linux-like sharing: the fault path writes mmap_sem even for
// reads, so two faults in one process conflict.
func TestMmapSemSharedOnFaults(t *testing.T) {
	k := New(Linux)
	apply(t, k, &Setup{VMAs: []SetupVMA{
		{Proc: 0, Page: 0, Anon: true, Writable: true},
		{Proc: 0, Page: 1, Anon: true, Writable: true},
	}})
	mem := k.Memory()
	mem.Start()
	k.Exec(0, kernel.Call{Op: "memread", Args: map[string]int64{"page": 0}})
	k.Exec(1, kernel.Call{Op: "memread", Args: map[string]int64{"page": 1}})
	mem.Stop()
	if mem.ConflictFree() {
		t.Error("page faults should conflict on mmap_sem in the Linux-like kernel")
	}
}

// Every name lookup bumps the dentry refcount — even failing lookups of
// negative dentries, as in Linux's dcache.
func TestNegativeDentryRefcount(t *testing.T) {
	k := New(Linux)
	apply(t, k, &Setup{})
	mem := k.Memory()
	mem.Start()
	k.Exec(0, kernel.Call{Op: "stat", Args: map[string]int64{"fname": 3}})
	k.Exec(1, kernel.Call{Op: "stat", Args: map[string]int64{"fname": 3}})
	mem.Stop()
	if mem.ConflictFree() {
		t.Error("same-name lookups should conflict on the (negative) dentry refcount")
	}
}

// The global inode allocator serializes file creation.
func TestGlobalInodeAllocator(t *testing.T) {
	k := New(Linux)
	apply(t, k, &Setup{})
	mem := k.Memory()
	mem.Start()
	k.Exec(0, kernel.Call{Op: "open", Args: map[string]int64{"fname": 0, "creat": 1}})
	k.Exec(1, kernel.Call{Op: "open", Proc: 1, Args: map[string]int64{"fname": 1, "creat": 1}})
	mem.Stop()
	found := false
	for _, c := range mem.Conflicts() {
		if c.CellName == "inode_table.next_ino" || c.CellName == "dir.lock" {
			found = true
		}
	}
	if !found {
		t.Errorf("creates in different processes should share the allocator or dir lock: %v", mem.Conflicts())
	}
}

// sv6

// Length reconciliation: with no shared length cell, the maximum present
// page defines the file length, including after truncation and sparse
// extension.
func TestLengthReconciliation(t *testing.T) {
	k := New(SV6)
	apply(t, k, &Setup{
		Files:  []SetupFile{{Name: 0, Inum: 1}},
		Inodes: []SetupInode{{Inum: 1, Len: 2}},
		FDs:    []SetupFD{{Proc: 0, FD: 0, Inum: 1}},
	})
	if r := k.Exec(0, kernel.Call{Op: "fstat", Args: map[string]int64{"fd": 0}}); r.V3 != 2 {
		t.Errorf("initial len = %v", r)
	}
	// Sparse extension: pwrite at page 5 makes the length 6.
	if r := k.Exec(0, kernel.Call{Op: "pwrite", Args: map[string]int64{"fd": 0, "off": 5, "val": 9}}); r.Code != 1 {
		t.Fatalf("pwrite: %v", r)
	}
	if r := k.Exec(0, kernel.Call{Op: "fstat", Args: map[string]int64{"fd": 0}}); r.V3 != 6 {
		t.Errorf("len after sparse pwrite = %v, want 6", r)
	}
	// The hole reads as zero, not stale data.
	if r := k.Exec(0, kernel.Call{Op: "pread", Args: map[string]int64{"fd": 0, "off": 3}}); r.Code != 1 || r.Data != 0 {
		t.Errorf("hole read = %v, want zero page", r)
	}
	// Truncate drops everything.
	if r := k.Exec(0, kernel.Call{Op: "open", Args: map[string]int64{"fname": 0, "trunc": 1, "anyfd": 1}}); r.Code < 0 {
		t.Fatalf("trunc open: %v", r)
	}
	if r := k.Exec(0, kernel.Call{Op: "fstat", Args: map[string]int64{"fd": 0}}); r.V3 != 0 {
		t.Errorf("len after trunc = %v, want 0", r)
	}
}

// Per-core O_ANYFD descriptors never collide across cores, and the
// lowest-FD mode matches POSIX.
func TestFDAllocationModes(t *testing.T) {
	k := New(SV6)
	apply(t, k, &Setup{
		Files:  []SetupFile{{Name: 0, Inum: 1}},
		Inodes: []SetupInode{{Inum: 1}},
	})
	seen := map[int64]bool{}
	for core := 0; core < 4; core++ {
		for i := 0; i < 3; i++ {
			r := k.Exec(core, kernel.Call{Op: "open", Args: map[string]int64{"fname": 0, "anyfd": 1}})
			if r.Code < 0 {
				t.Fatalf("open: %v", r)
			}
			if seen[r.Code] {
				t.Fatalf("any-FD collision on %d", r.Code)
			}
			seen[r.Code] = true
		}
	}
	// Lowest mode: fresh kernel, sequential opens get 0,1,2.
	k2 := New(SV6)
	apply(t, k2, &Setup{
		Files:  []SetupFile{{Name: 0, Inum: 1}},
		Inodes: []SetupInode{{Inum: 1}},
	})
	for want := int64(0); want < 3; want++ {
		r := k2.Exec(0, kernel.Call{Op: "open", Args: map[string]int64{"fname": 0}})
		if r.Code != want {
			t.Errorf("lowest-FD open = %d, want %d", r.Code, want)
		}
	}
}

// Inode numbers are never reused (ScaleFS's defer-work design).
func TestInodeNumbersNeverReused(t *testing.T) {
	k := New(SV6)
	apply(t, k, &Setup{})
	seen := map[int64]bool{}
	for i := int64(0); i < 5; i++ {
		r := k.Exec(0, kernel.Call{Op: "open", Args: map[string]int64{"fname": i, "creat": 1, "anyfd": 1}})
		if r.Code < 0 {
			t.Fatal(r)
		}
		st := k.Exec(0, kernel.Call{Op: "stat", Args: map[string]int64{"fname": i}})
		if seen[st.V1] {
			t.Fatalf("inode %d reused", st.V1)
		}
		seen[st.V1] = true
		k.Exec(0, kernel.Call{Op: "unlink", Args: map[string]int64{"fname": i}})
	}
}

// SV6SharedLinkCount swaps the nlink representation without changing
// results.
func TestSharedLinkCountOption(t *testing.T) {
	for _, d := range []Design{SV6, SV6SharedLinkCount} {
		k := New(d)
		apply(t, k, &Setup{
			Files:  []SetupFile{{Name: 0, Inum: 1}},
			Inodes: []SetupInode{{Inum: 1}},
		})
		k.Exec(0, kernel.Call{Op: "link", Args: map[string]int64{"old": 0, "new": 1}})
		r := k.Exec(1, kernel.Call{Op: "stat", Args: map[string]int64{"fname": 0}})
		if r.V2 != 2 {
			t.Errorf("refcache=%v: nlink = %v, want 2", d.refcache, r)
		}
	}
}

// fstat's nolink selection (fstatx) must not read the link count's cache
// lines.
func TestFstatxSkipsLinkCount(t *testing.T) {
	k := New(SV6)
	apply(t, k, &Setup{
		Files:  []SetupFile{{Name: 0, Inum: 1}},
		Inodes: []SetupInode{{Inum: 1}},
		FDs:    []SetupFD{{Proc: 0, FD: 0, Inum: 1}},
	})
	mem := k.Memory()
	mem.Start()
	k.Exec(0, kernel.Call{Op: "fstat", Args: map[string]int64{"fd": 0, "nolink": 1}})
	k.Exec(1, kernel.Call{Op: "link", Args: map[string]int64{"old": 0, "new": 1}})
	mem.Stop()
	if !mem.ConflictFree() {
		t.Errorf("fstat without st_nlink must not conflict with link: %v", mem.Conflicts())
	}
	// Plain fstat does conflict (it reconciles the Refcache count).
	mem.Start()
	k.Exec(0, kernel.Call{Op: "fstat", Args: map[string]int64{"fd": 0}})
	k.Exec(1, kernel.Call{Op: "unlink", Args: map[string]int64{"fname": 1}})
	mem.Stop()
	if mem.ConflictFree() {
		t.Error("fstat should conflict with concurrent link-count updates")
	}
}

// TestNewAllocatesLittle pins kernel construction to what a kernel holds
// before any test touches it — no directory bucket, no per-core counter —
// without a clock: the eager 8192-bucket table cost 90,694 mallocs (3.3 MB)
// a kernel, when the engine still built one sv6 kernel per pair.
func TestNewAllocatesLittle(t *testing.T) {
	if n := testing.AllocsPerRun(10, func() { _ = New(SV6) }); n >= 2000 {
		t.Errorf("New(SV6) performs %.0f allocations, want < 2000", n)
	}
}

// oneInode is the smallest file setup: one name, one inode, one page.
var oneInode = &Setup{
	Files:  []SetupFile{{Name: 0, Inum: 1}},
	Inodes: []SetupInode{{Inum: 1, Len: 1}},
}

// applyAndReset returns what a Replayer does with a setup between groups:
// apply it inside the baseline region, then reset, on a kernel of design d.
// What Apply builds survives the reset, so every call after the first
// applies s to what the first one built.
func applyAndReset(tb testing.TB, d Design, s kernel.Setup) func() {
	k := New(d)
	k.Memory().Snapshot()
	return func() {
		k.Apply(s)
		k.Memory().Reset()
	}
}

// TestSetupAllocatesPerTouch pins applying a one-inode setup the way
// TestNewAllocatesLittle pins construction: the engine applies one setup per
// group of tests. Building the inode costs 31 mallocs (1.7 KB), where a link
// count that built every core's delta cell up front cost 323 (15.6 KB);
// applying the setup again to the inode a reset kept costs nothing, where
// the directory entry's reset hook cost 1 (48 B) and a new entry cell 4
// (176 B).
func TestSetupAllocatesPerTouch(t *testing.T) {
	k := New(SV6)
	k.Memory().Snapshot()
	inum := int64(1)
	build := testing.AllocsPerRun(10, func() {
		inum++ // an inode no earlier run built
		k.Apply(&Setup{
			Files:  []SetupFile{{Name: 0, Inum: inum}},
			Inodes: []SetupInode{{Inum: inum, Len: 1}},
		})
		k.Memory().Reset()
	})
	if build >= 100 {
		t.Errorf("applying a one-inode setup builds the inode in %.0f allocations, want < 100", build)
	}
	if n := testing.AllocsPerRun(10, applyAndReset(t, SV6, oneInode)); n >= 10 {
		t.Errorf("applying a one-inode setup to a kept inode performs %.0f allocations, want < 10", n)
	}
}

// BenchmarkApplyOneInode is the second half in bytes: B/op is the number to
// watch.
func BenchmarkApplyOneInode(b *testing.B) {
	run := applyAndReset(b, SV6, oneInode)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		run()
	}
}

// everyKept is a setup with one of each object Apply keeps across resets:
// two descriptors (one on a pipe), a pipe with a backlog, a file mapping and
// an anonymous page.
var everyKept = &Setup{
	Files:  []SetupFile{{Name: 0, Inum: 1}},
	Inodes: []SetupInode{{Inum: 1, Len: 2, Pages: map[int64]int64{1: 5}}},
	FDs: []SetupFD{
		{Proc: 0, FD: 0, Inum: 1, Off: 1},
		{Proc: 1, FD: 3, Pipe: true, PipeID: 7},
	},
	Pipes: []SetupPipe{{ID: 7, Items: []int64{8, 9}}},
	VMAs: []SetupVMA{
		{Proc: 0, Page: 2, Inum: 1, Foff: 1, Writable: true},
		{Proc: 1, Page: 4, Anon: true, Val: 6},
	},
}

// TestWarmSetupAllocatesNothing pins what a setup costs a kernel that has
// applied it before, the case of every setup group after a sweep worker's
// first few: Apply relinks the descriptors, pipe, mappings and anonymous
// page it kept and allocates nothing, on both designs. A descriptor's file
// and a mapping are the values of entries a traced map keeps, and a pipe
// and an anonymous page are kept by identity. Each map entry's reset
// closure cost 6 allocations (288 B) on Linux and 7 (336 B) on sv6 before
// the tables were traced maps, and rebuilding the objects at every setup 43
// (2.3 KB) and 51 (2.4 KB).
func TestWarmSetupAllocatesNothing(t *testing.T) {
	for _, d := range []Design{Linux, SV6} {
		run := applyAndReset(t, d, everyKept)
		run()
		if n := testing.AllocsPerRun(10, run); n != 0 {
			t.Errorf("%s: applying a setup again performs %.0f allocations, want 0", d.name, n)
		}
	}
}

// BenchmarkApply is the same in bytes, on both designs: B/op is the number
// to watch.
func BenchmarkApply(b *testing.B) {
	for _, d := range []Design{Linux, SV6} {
		b.Run(d.name, func(b *testing.B) {
			run := applyAndReset(b, d, everyKept)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				run()
			}
		})
	}
}

// fstat reconciles the link count and link/unlink change it, so the two
// conflict whichever runs first — also when the updater's delta cell is
// born before the reader bears the rest, and on a kernel replaying from a
// snapshot, where cells born by one test outlive its reset.
func TestFstatConflictsWithLinkCountUpdateEitherOrder(t *testing.T) {
	k := New(SV6)
	mem := k.Memory()
	apply(t, k, &Setup{
		Files:  []SetupFile{{Name: 0, Inum: 1}, {Name: 1, Inum: 1}},
		Inodes: []SetupInode{{Inum: 1}},
		FDs:    []SetupFD{{Proc: 0, FD: 0, Inum: 1}},
	})
	mem.Snapshot()
	fstat := kernel.Call{Op: "fstat", Args: map[string]int64{"fd": 0}}
	updates := []kernel.Call{
		{Op: "link", Proc: 1, Args: map[string]int64{"old": 0, "new": 2}},
		{Op: "unlink", Proc: 1, Args: map[string]int64{"fname": 1}},
	}
	for round := 0; round < 2; round++ {
		for _, update := range updates {
			for _, fstatFirst := range []bool{true, false} {
				mem.Start()
				var st, up kernel.Result
				if fstatFirst {
					st = k.Exec(0, fstat)
					up = k.Exec(1, update)
				} else {
					up = k.Exec(1, update)
					st = k.Exec(0, fstat)
				}
				mem.Stop()
				if st.Code != 0 || up.Code != 0 {
					t.Fatalf("round %d %s fstatFirst=%v: fstat %v, %s %v", round, update.Op, fstatFirst, st, update.Op, up)
				}
				onDelta := false
				for _, c := range mem.Conflicts() {
					onDelta = onDelta || c.CellName == "inode[1].nlink.delta[1]"
				}
				if !onDelta {
					t.Errorf("round %d: fstat || %s (fstat first: %v) must conflict on core 1's delta, got %v",
						round, update.Op, fstatFirst, mem.Conflicts())
				}
				mem.Reset()
			}
		}
	}
}
