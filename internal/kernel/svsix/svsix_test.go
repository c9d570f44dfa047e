package svsix

import (
	"testing"

	"repro/internal/kernel"
)

func apply(t *testing.T, k *Kern, s kernel.Setup) {
	t.Helper()
	k.Apply(s)
}

// Length reconciliation: with no shared length cell, the maximum present
// page defines the file length, including after truncation and sparse
// extension.
func TestLengthReconciliation(t *testing.T) {
	k := New()
	apply(t, k, kernel.Setup{
		Files:  []kernel.SetupFile{{Name: "f0", Inum: 1}},
		Inodes: []kernel.SetupInode{{Inum: 1, Len: 2}},
		FDs:    []kernel.SetupFD{{Proc: 0, FD: 0, Inum: 1}},
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
	k := New()
	apply(t, k, kernel.Setup{
		Files:  []kernel.SetupFile{{Name: "f0", Inum: 1}},
		Inodes: []kernel.SetupInode{{Inum: 1}},
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
	k2 := New()
	apply(t, k2, kernel.Setup{
		Files:  []kernel.SetupFile{{Name: "f0", Inum: 1}},
		Inodes: []kernel.SetupInode{{Inum: 1}},
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
	k := New()
	apply(t, k, kernel.Setup{})
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

// SharedLinkCount swaps the nlink representation without changing results.
func TestSharedLinkCountOption(t *testing.T) {
	for _, shared := range []bool{false, true} {
		k := NewOpts(Opts{SharedLinkCount: shared})
		apply(t, k, kernel.Setup{
			Files:  []kernel.SetupFile{{Name: "f0", Inum: 1}},
			Inodes: []kernel.SetupInode{{Inum: 1}},
		})
		k.Exec(0, kernel.Call{Op: "link", Args: map[string]int64{"old": 0, "new": 1}})
		r := k.Exec(1, kernel.Call{Op: "stat", Args: map[string]int64{"fname": 0}})
		if r.V2 != 2 {
			t.Errorf("shared=%v: nlink = %v, want 2", shared, r)
		}
	}
}

// fstatx's nolink selection must not read the link count's cache lines.
func TestFstatxSkipsLinkCount(t *testing.T) {
	k := New()
	apply(t, k, kernel.Setup{
		Files:  []kernel.SetupFile{{Name: "f0", Inum: 1}},
		Inodes: []kernel.SetupInode{{Inum: 1}},
		FDs:    []kernel.SetupFD{{Proc: 0, FD: 0, Inum: 1}},
	})
	mem := k.Memory()
	mem.Start()
	k.Exec(0, kernel.Call{Op: "fstatx", Args: map[string]int64{"fd": 0, "nolink": 1}})
	k.Exec(1, kernel.Call{Op: "link", Args: map[string]int64{"old": 0, "new": 1}})
	mem.Stop()
	if !mem.ConflictFree() {
		t.Errorf("fstatx must not conflict with link: %v", mem.Conflicts())
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
// without a clock: the engine builds one sv6 kernel per pair, and the
// eager 8192-bucket table cost 90,694 mallocs (3.3 MB) each.
func TestNewAllocatesLittle(t *testing.T) {
	if n := testing.AllocsPerRun(10, func() { _ = New() }); n >= 2000 {
		t.Errorf("svsix.New performs %.0f allocations, want < 2000", n)
	}
}

// oneInode is the smallest file setup: one name, one inode, one page.
var oneInode = kernel.Setup{
	Files:  []kernel.SetupFile{{Name: "f0", Inum: 1}},
	Inodes: []kernel.SetupInode{{Inum: 1, Len: 1}},
}

// applyAndReset returns what a Replayer does with a setup between tests:
// apply it inside the baseline region, then reset, which drops the inode so
// that the next call builds it again.
func applyAndReset(tb testing.TB) func() {
	k := New()
	k.Memory().Snapshot()
	return func() {
		k.Apply(oneInode)
		k.Memory().Reset()
	}
}

// TestSetupAllocatesPerTouch pins applying a one-inode setup the way
// TestNewAllocatesLittle pins construction: the engine applies one setup per
// group of tests, and an inode whose link count built every core's delta
// cell up front cost 323 mallocs (15.6 KB) where this costs 35 (1.7 KB).
func TestSetupAllocatesPerTouch(t *testing.T) {
	if n := testing.AllocsPerRun(10, applyAndReset(t)); n >= 100 {
		t.Errorf("applying a one-inode setup performs %.0f allocations, want < 100", n)
	}
}

// BenchmarkApplyOneInode is the same in bytes: B/op is the number to watch.
func BenchmarkApplyOneInode(b *testing.B) {
	run := applyAndReset(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		run()
	}
}

// fstat reconciles the link count and link/unlink change it, so the two
// conflict whichever runs first — also when the updater's delta cell is
// born before the reader bears the rest, and on a kernel replaying from a
// snapshot, where cells born by one test outlive its reset.
func TestFstatConflictsWithLinkCountUpdateEitherOrder(t *testing.T) {
	k := New()
	mem := k.Memory()
	apply(t, k, kernel.Setup{
		Files:  []kernel.SetupFile{{Name: "f0", Inum: 1}, {Name: "f1", Inum: 1}},
		Inodes: []kernel.SetupInode{{Inum: 1}},
		FDs:    []kernel.SetupFD{{Proc: 0, FD: 0, Inum: 1}},
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
