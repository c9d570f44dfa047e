package monokernel

import (
	"testing"

	"repro/internal/kernel"
)

func apply(t *testing.T, k *Kern, s kernel.Setup) {
	t.Helper()
	k.Apply(s)
}

// The lowest-FD rule across open, pipe and close.
func TestLowestFDRule(t *testing.T) {
	k := New()
	apply(t, k, kernel.Setup{
		Files:  []kernel.SetupFile{{Name: "f0", Inum: 1}},
		Inodes: []kernel.SetupInode{{Inum: 1}},
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
	r := k.Exec(0, kernel.Call{Op: "pipe", Args: map[string]int64{}})
	if r.V1 != 2 || r.V2 != 3 {
		t.Errorf("pipe fds = %d,%d, want 2,3", r.V1, r.V2)
	}
}

// O_TRUNC must zero dropped pages so later extension exposes holes, not
// stale data.
func TestTruncDropsPages(t *testing.T) {
	k := New()
	apply(t, k, kernel.Setup{
		Files:  []kernel.SetupFile{{Name: "f0", Inum: 1}},
		Inodes: []kernel.SetupInode{{Inum: 1, Len: 2, Pages: map[int64]int64{0: 21, 1: 22}}},
		FDs:    []kernel.SetupFD{{Proc: 0, FD: 0, Inum: 1}},
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
	k := New()
	apply(t, k, kernel.Setup{VMAs: []kernel.SetupVMA{
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
	k := New()
	apply(t, k, kernel.Setup{})
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
	k := New()
	apply(t, k, kernel.Setup{})
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
