package kernel_test

import (
	"testing"

	"repro/internal/kernel"
	"repro/internal/kernel/kerneltest"
	"repro/internal/kernel/unix"
)

func kernels() map[string]func() kernel.Kernel {
	return map[string]func() kernel.Kernel{
		"linux": func() kernel.Kernel { return unix.New(unix.Linux) },
		"sv6":   func() kernel.Kernel { return unix.New(unix.SV6) },
	}
}

func call(op string, proc int, args map[string]int64) kernel.Call {
	if args == nil {
		args = map[string]int64{}
	}
	return kernel.Call{Op: op, Proc: proc, Args: args}
}

// oneFile is a setup with f0 -> inode 1, length 2 pages, contents 11, 12.
func oneFile() kernel.Setup {
	return kernel.Setup{
		Files:  []kernel.SetupFile{{Name: "f0", Inum: 1}},
		Inodes: []kernel.SetupInode{{Inum: 1, Len: 2, Pages: map[int64]int64{0: 11, 1: 12}}},
	}
}

func TestStatSemantics(t *testing.T) {
	for name, fresh := range kernels() {
		k := fresh()
		k.Apply(oneFile())
		r := k.Exec(0, call("stat", 0, map[string]int64{"fname": 0}))
		if r.Code != 0 || r.V1 != 1 || r.V2 != 1 || r.V3 != 2 {
			t.Errorf("%s: stat(f0) = %v, want ino=1 nlink=1 len=2", name, r)
		}
		r = k.Exec(0, call("stat", 0, map[string]int64{"fname": 9}))
		if r.Code != -kernel.ENOENT {
			t.Errorf("%s: stat(missing) = %v, want ENOENT", name, r)
		}
	}
}

func TestOpenReadWriteSemantics(t *testing.T) {
	for name, fresh := range kernels() {
		k := fresh()
		k.Apply(oneFile())
		r := k.Exec(0, call("open", 0, map[string]int64{"fname": 0}))
		if r.Code < 0 {
			t.Fatalf("%s: open = %v", name, r)
		}
		fd := r.Code
		if r = k.Exec(0, call("read", 0, map[string]int64{"fd": fd})); r.Code != 1 || r.Data != 11 {
			t.Errorf("%s: first read = %v, want data 11", name, r)
		}
		if r = k.Exec(0, call("read", 0, map[string]int64{"fd": fd})); r.Code != 1 || r.Data != 12 {
			t.Errorf("%s: second read = %v, want data 12", name, r)
		}
		if r = k.Exec(0, call("read", 0, map[string]int64{"fd": fd})); r.Code != 0 {
			t.Errorf("%s: read at EOF = %v, want 0", name, r)
		}
		if r = k.Exec(0, call("write", 0, map[string]int64{"fd": fd, "val": 99})); r.Code != 1 {
			t.Errorf("%s: write = %v", name, r)
		}
		if r = k.Exec(0, call("pread", 0, map[string]int64{"fd": fd, "off": 2})); r.Data != 99 {
			t.Errorf("%s: pread(2) after extend = %v, want 99", name, r)
		}
		if r = k.Exec(0, call("stat", 0, map[string]int64{"fname": 0})); r.V3 != 3 {
			t.Errorf("%s: len after extend = %v, want 3", name, r)
		}
	}
}

func TestOpenCreatExclTrunc(t *testing.T) {
	for name, fresh := range kernels() {
		k := fresh()
		k.Apply(oneFile())
		r := k.Exec(0, call("open", 0, map[string]int64{"fname": 0, "creat": 1, "excl": 1}))
		if r.Code != -kernel.EEXIST {
			t.Errorf("%s: O_CREAT|O_EXCL on existing = %v", name, r)
		}
		r = k.Exec(0, call("open", 0, map[string]int64{"fname": 5}))
		if r.Code != -kernel.ENOENT {
			t.Errorf("%s: open missing without O_CREAT = %v", name, r)
		}
		r = k.Exec(0, call("open", 0, map[string]int64{"fname": 5, "creat": 1}))
		if r.Code < 0 {
			t.Errorf("%s: O_CREAT new file = %v", name, r)
		}
		if r = k.Exec(0, call("stat", 0, map[string]int64{"fname": 5})); r.Code != 0 || r.V3 != 0 {
			t.Errorf("%s: stat of created file = %v", name, r)
		}
		r = k.Exec(0, call("open", 0, map[string]int64{"fname": 0, "trunc": 1}))
		if r.Code < 0 {
			t.Errorf("%s: O_TRUNC open = %v", name, r)
		}
		if r = k.Exec(0, call("stat", 0, map[string]int64{"fname": 0})); r.V3 != 0 {
			t.Errorf("%s: len after O_TRUNC = %v, want 0", name, r)
		}
	}
}

func TestLinkUnlinkRename(t *testing.T) {
	for name, fresh := range kernels() {
		k := fresh()
		k.Apply(oneFile())
		if r := k.Exec(0, call("link", 0, map[string]int64{"old": 0, "new": 1})); r.Code != 0 {
			t.Fatalf("%s: link = %v", name, r)
		}
		if r := k.Exec(0, call("stat", 0, map[string]int64{"fname": 1})); r.V1 != 1 || r.V2 != 2 {
			t.Errorf("%s: stat(link) = %v, want ino=1 nlink=2", name, r)
		}
		if r := k.Exec(0, call("link", 0, map[string]int64{"old": 0, "new": 1})); r.Code != -kernel.EEXIST {
			t.Errorf("%s: link to existing = %v", name, r)
		}
		if r := k.Exec(0, call("link", 0, map[string]int64{"old": 7, "new": 2})); r.Code != -kernel.ENOENT {
			t.Errorf("%s: link from missing = %v", name, r)
		}
		if r := k.Exec(0, call("unlink", 0, map[string]int64{"fname": 1})); r.Code != 0 {
			t.Errorf("%s: unlink = %v", name, r)
		}
		if r := k.Exec(0, call("stat", 0, map[string]int64{"fname": 0})); r.V2 != 1 {
			t.Errorf("%s: nlink after unlink = %v, want 1", name, r)
		}
		if r := k.Exec(0, call("rename", 0, map[string]int64{"src": 0, "dst": 3})); r.Code != 0 {
			t.Errorf("%s: rename = %v", name, r)
		}
		if r := k.Exec(0, call("stat", 0, map[string]int64{"fname": 0})); r.Code != -kernel.ENOENT {
			t.Errorf("%s: stat old name after rename = %v", name, r)
		}
		if r := k.Exec(0, call("stat", 0, map[string]int64{"fname": 3})); r.V1 != 1 {
			t.Errorf("%s: stat new name after rename = %v", name, r)
		}
		if r := k.Exec(0, call("rename", 0, map[string]int64{"src": 9, "dst": 3})); r.Code != -kernel.ENOENT {
			t.Errorf("%s: rename missing src = %v", name, r)
		}
	}
}

func TestFDSemantics(t *testing.T) {
	setup := kernel.Setup{
		Files:  []kernel.SetupFile{{Name: "f0", Inum: 1}},
		Inodes: []kernel.SetupInode{{Inum: 1, Len: 2, Pages: map[int64]int64{0: 11, 1: 12}}},
		FDs:    []kernel.SetupFD{{Proc: 0, FD: 0, Inum: 1, Off: 1}},
	}
	for name, fresh := range kernels() {
		k := fresh()
		k.Apply(setup)
		if r := k.Exec(0, call("fstat", 0, map[string]int64{"fd": 0})); r.V1 != 1 || r.V3 != 2 {
			t.Errorf("%s: fstat = %v", name, r)
		}
		if r := k.Exec(0, call("read", 0, map[string]int64{"fd": 0})); r.Data != 12 {
			t.Errorf("%s: read at off=1 = %v, want 12", name, r)
		}
		if r := k.Exec(0, call("lseek", 0, map[string]int64{"fd": 0, "delta": 0, "wset": 1})); r.V1 != 0 {
			t.Errorf("%s: lseek SET 0 = %v", name, r)
		}
		if r := k.Exec(0, call("lseek", 0, map[string]int64{"fd": 0, "delta": 1, "wend": 1})); r.V1 != 3 {
			t.Errorf("%s: lseek END+1 = %v", name, r)
		}
		if r := k.Exec(0, call("lseek", 0, map[string]int64{"fd": 0, "delta": -9})); r.Code != -kernel.EINVAL {
			t.Errorf("%s: lseek to negative = %v", name, r)
		}
		if r := k.Exec(0, call("close", 0, map[string]int64{"fd": 0})); r.Code != 0 {
			t.Errorf("%s: close = %v", name, r)
		}
		if r := k.Exec(0, call("fstat", 0, map[string]int64{"fd": 0})); r.Code != -kernel.EBADF {
			t.Errorf("%s: fstat closed fd = %v", name, r)
		}
		if r := k.Exec(1, call("fstat", 1, map[string]int64{"fd": 0})); r.Code != -kernel.EBADF {
			t.Errorf("%s: fstat in other proc = %v", name, r)
		}
	}
}

func TestPipeSemantics(t *testing.T) {
	setup := kernel.Setup{
		Pipes: []kernel.SetupPipe{{ID: 1, Items: []int64{41}}},
		FDs: []kernel.SetupFD{
			{Proc: 0, FD: 0, Pipe: true, PipeID: 1},
			{Proc: 0, FD: 1, Pipe: true, PipeID: 1, WriteEnd: true},
		},
	}
	for name, fresh := range kernels() {
		k := fresh()
		k.Apply(setup)
		if r := k.Exec(0, call("fstat", 0, map[string]int64{"fd": 0})); r.V3 != 1 {
			t.Errorf("%s: pipe fstat queued = %v, want 1", name, r)
		}
		if r := k.Exec(0, call("write", 0, map[string]int64{"fd": 1, "val": 42})); r.Code != 1 {
			t.Errorf("%s: pipe write = %v", name, r)
		}
		if r := k.Exec(0, call("read", 0, map[string]int64{"fd": 0})); r.Data != 41 {
			t.Errorf("%s: pipe read = %v, want 41 (FIFO)", name, r)
		}
		if r := k.Exec(0, call("read", 0, map[string]int64{"fd": 0})); r.Data != 42 {
			t.Errorf("%s: pipe read = %v, want 42", name, r)
		}
		if r := k.Exec(0, call("read", 0, map[string]int64{"fd": 0})); r.Code != -kernel.EAGAIN {
			t.Errorf("%s: empty pipe read = %v", name, r)
		}
		if r := k.Exec(0, call("read", 0, map[string]int64{"fd": 1})); r.Code != -kernel.EBADF {
			t.Errorf("%s: read on write end = %v", name, r)
		}
		if r := k.Exec(0, call("lseek", 0, map[string]int64{"fd": 0, "delta": 0, "wset": 1})); r.Code != -kernel.ESPIPE {
			t.Errorf("%s: lseek on pipe = %v", name, r)
		}
		if r := k.Exec(0, call("pipe", 0, nil)); r.Code != 0 || r.V1 == r.V2 {
			t.Errorf("%s: pipe() = %v", name, r)
		}
	}
}

func TestVMSemantics(t *testing.T) {
	setup := kernel.Setup{
		Files:  []kernel.SetupFile{{Name: "f0", Inum: 1}},
		Inodes: []kernel.SetupInode{{Inum: 1, Len: 1, Pages: map[int64]int64{0: 7}}},
		FDs:    []kernel.SetupFD{{Proc: 0, FD: 0, Inum: 1}},
	}
	for name, fresh := range kernels() {
		k := fresh()
		k.Apply(setup)
		if r := k.Exec(0, call("memread", 0, map[string]int64{"page": 0})); r.Code != -kernel.ESIGSEGV {
			t.Errorf("%s: unmapped memread = %v", name, r)
		}
		r := k.Exec(0, call("mmap", 0, map[string]int64{"page": 0, "fixed": 1, "anon": 1, "wr": 1}))
		if r.Code != 0 || r.V1 != 0 {
			t.Fatalf("%s: anon mmap fixed = %v", name, r)
		}
		if r = k.Exec(0, call("memread", 0, map[string]int64{"page": 0})); r.Code != 0 || r.Data != 0 {
			t.Errorf("%s: anon page reads zero, got %v", name, r)
		}
		if r = k.Exec(0, call("memwrite", 0, map[string]int64{"page": 0, "val": 5})); r.Code != 0 {
			t.Errorf("%s: memwrite = %v", name, r)
		}
		if r = k.Exec(0, call("memread", 0, map[string]int64{"page": 0})); r.Data != 5 {
			t.Errorf("%s: memread after write = %v", name, r)
		}
		// File-backed mapping shares the page cache.
		r = k.Exec(0, call("mmap", 0, map[string]int64{"page": 1, "fixed": 1, "fd": 0, "foff": 0, "wr": 1}))
		if r.Code != 0 {
			t.Fatalf("%s: file mmap = %v", name, r)
		}
		if r = k.Exec(0, call("memread", 0, map[string]int64{"page": 1})); r.Data != 7 {
			t.Errorf("%s: file-backed memread = %v, want 7", name, r)
		}
		if r = k.Exec(0, call("memwrite", 0, map[string]int64{"page": 1, "val": 8})); r.Code != 0 {
			t.Errorf("%s: file-backed memwrite = %v", name, r)
		}
		if r = k.Exec(0, call("pread", 0, map[string]int64{"fd": 0, "off": 0})); r.Data != 8 {
			t.Errorf("%s: pread after shared write = %v, want 8", name, r)
		}
		// Protection and unmapping.
		if r = k.Exec(0, call("mprotect", 0, map[string]int64{"page": 0, "wr": 0})); r.Code != 0 {
			t.Errorf("%s: mprotect = %v", name, r)
		}
		if r = k.Exec(0, call("memwrite", 0, map[string]int64{"page": 0, "val": 9})); r.Code != -kernel.ESIGSEGV {
			t.Errorf("%s: write to read-only page = %v", name, r)
		}
		if r = k.Exec(0, call("munmap", 0, map[string]int64{"page": 0})); r.Code != 0 {
			t.Errorf("%s: munmap = %v", name, r)
		}
		if r = k.Exec(0, call("memread", 0, map[string]int64{"page": 0})); r.Code != -kernel.ESIGSEGV {
			t.Errorf("%s: memread after munmap = %v", name, r)
		}
		if r = k.Exec(0, call("mprotect", 0, map[string]int64{"page": 0, "wr": 1})); r.Code != -kernel.ENOMEM {
			t.Errorf("%s: mprotect unmapped = %v", name, r)
		}
		// Non-fixed mmap picks an unused address.
		r = k.Exec(0, call("mmap", 0, map[string]int64{"anon": 1, "wr": 1}))
		if r.Code != 0 {
			t.Errorf("%s: non-fixed mmap = %v", name, r)
		}
		if r2 := k.Exec(0, call("memread", 0, map[string]int64{"page": r.V1})); r2.Code != 0 {
			t.Errorf("%s: read of non-fixed mapping at %d = %v", name, r.V1, r2)
		}
	}
}

// checkConflicts runs two calls on fresh kernels of each flavor and returns
// conflict-freedom per kernel name.
func checkConflicts(t *testing.T, setup kernel.Setup, c0, c1 kernel.Call) map[string]bool {
	t.Helper()
	out := map[string]bool{}
	for name, fresh := range kernels() {
		res, _ := kerneltest.Check(fresh, kernel.TestCase{ID: "t", Setup: setup, Calls: [2]kernel.Call{c0, c1}})
		out[name] = res.ConflictFree
	}
	return out
}

// The §1 motivating example: creating two differently-named files in one
// directory commutes; Linux's directory lock conflicts, sv6's per-bucket
// hash directory does not.
func TestCreateDifferentFilesConflictProfile(t *testing.T) {
	cf := checkConflicts(t, kernel.Setup{},
		call("open", 0, map[string]int64{"fname": 1, "creat": 1, "anyfd": 1}),
		call("open", 1, map[string]int64{"fname": 2, "creat": 1, "anyfd": 1}))
	if cf["linux"] {
		t.Error("linux: creating different files should conflict (dir lock, global ialloc)")
	}
	if !cf["sv6"] {
		t.Error("sv6: creating different files should be conflict-free")
	}
}

func TestStatDifferentFilesBothScale(t *testing.T) {
	setup := kernel.Setup{
		Files:  []kernel.SetupFile{{Name: "f0", Inum: 1}, {Name: "f1", Inum: 2}},
		Inodes: []kernel.SetupInode{{Inum: 1}, {Inum: 2}},
	}
	cf := checkConflicts(t, setup,
		call("stat", 0, map[string]int64{"fname": 0}),
		call("stat", 1, map[string]int64{"fname": 1}))
	if !cf["linux"] || !cf["sv6"] {
		t.Errorf("stat of different files should be conflict-free on both: %v", cf)
	}
}

// stat of the same name commutes (read-only), but Linux's dentry refcount
// write makes it conflict; sv6's lock-free lookup does not (§6.2).
func TestStatSameFileConflictProfile(t *testing.T) {
	setup := oneFile()
	cf := checkConflicts(t, setup,
		call("stat", 0, map[string]int64{"fname": 0}),
		call("stat", 1, map[string]int64{"fname": 0}))
	if cf["linux"] {
		t.Error("linux: stat same name should conflict on the dentry refcount")
	}
	if !cf["sv6"] {
		t.Error("sv6: stat same name should be conflict-free")
	}
}

// Two fstats of the same descriptor commute; Linux bumps the struct-file
// refcount (§6.2's example), sv6 reads only.
func TestFstatSameFDConflictProfile(t *testing.T) {
	setup := kernel.Setup{
		Files:  []kernel.SetupFile{{Name: "f0", Inum: 1}},
		Inodes: []kernel.SetupInode{{Inum: 1}},
		FDs:    []kernel.SetupFD{{Proc: 0, FD: 0, Inum: 1}},
	}
	cf := checkConflicts(t, setup,
		call("fstat", 0, map[string]int64{"fd": 0}),
		call("fstat", 0, map[string]int64{"fd": 0}))
	if cf["linux"] {
		t.Error("linux: fstat same fd should conflict on the file refcount")
	}
	if !cf["sv6"] {
		t.Error("sv6: fstat same fd should be conflict-free")
	}
}

// Commutative mmaps in the same process: Linux serializes on mmap_sem,
// RadixVM's per-page cells do not (§6.2, [15]).
func TestMmapDifferentPagesConflictProfile(t *testing.T) {
	cf := checkConflicts(t, kernel.Setup{},
		call("mmap", 0, map[string]int64{"page": 0, "fixed": 1, "anon": 1, "wr": 1}),
		call("mmap", 0, map[string]int64{"page": 1, "fixed": 1, "anon": 1, "wr": 1}))
	if cf["linux"] {
		t.Error("linux: mmap of different pages should conflict on mmap_sem")
	}
	if !cf["sv6"] {
		t.Error("sv6: mmap of different pages should be conflict-free")
	}
}

func TestMemAccessDifferentPagesConflictProfile(t *testing.T) {
	setup := kernel.Setup{VMAs: []kernel.SetupVMA{
		{Proc: 0, Page: 0, Anon: true, Writable: true, Val: 1},
		{Proc: 0, Page: 1, Anon: true, Writable: true, Val: 2},
	}}
	cf := checkConflicts(t, setup,
		call("memwrite", 0, map[string]int64{"page": 0, "val": 9}),
		call("memread", 0, map[string]int64{"page": 1}))
	if cf["linux"] {
		t.Error("linux: page faults should conflict on mmap_sem")
	}
	if !cf["sv6"] {
		t.Error("sv6: access to different pages should be conflict-free")
	}
}

// link and unlink of different names pointing at one inode commute; the
// shared link count conflicts on Linux, Refcache does not (§7.2).
func TestLinkUnlinkSameInodeConflictProfile(t *testing.T) {
	setup := kernel.Setup{
		Files:  []kernel.SetupFile{{Name: "f0", Inum: 1}, {Name: "f1", Inum: 1}},
		Inodes: []kernel.SetupInode{{Inum: 1}},
	}
	cf := checkConflicts(t, setup,
		call("link", 0, map[string]int64{"old": 0, "new": 2}),
		call("unlink", 1, map[string]int64{"fname": 1}))
	if cf["linux"] {
		t.Error("linux: link/unlink same inode should conflict on nlink")
	}
	if !cf["sv6"] {
		t.Error("sv6: link/unlink same inode should be conflict-free via Refcache")
	}
}

// Reads and writes of a non-empty pipe commute; one pipe lock conflicts,
// sv6's split head/tail cursors do not (§4).
func TestPipeReadWriteConflictProfile(t *testing.T) {
	setup := kernel.Setup{
		Pipes: []kernel.SetupPipe{{ID: 1, Items: []int64{5}}},
		FDs: []kernel.SetupFD{
			{Proc: 0, FD: 0, Pipe: true, PipeID: 1},
			{Proc: 1, FD: 0, Pipe: true, PipeID: 1, WriteEnd: true},
		},
	}
	cf := checkConflicts(t, setup,
		call("read", 0, map[string]int64{"fd": 0}),
		call("write", 1, map[string]int64{"fd": 0, "val": 9}))
	if cf["linux"] {
		t.Error("linux: pipe read||write should conflict on the pipe lock")
	}
	if !cf["sv6"] {
		t.Error("sv6: read||write of non-empty pipe should be conflict-free")
	}
}

// §6.4: sv6 deliberately does not scale idempotent lseeks; the offset cell
// stays shared. Both kernels conflict — and the runner still reports the
// calls as commutative (same results both orders).
func TestIdempotentLseekDifficultCase(t *testing.T) {
	setup := kernel.Setup{
		Files:  []kernel.SetupFile{{Name: "f0", Inum: 1}},
		Inodes: []kernel.SetupInode{{Inum: 1, Len: 2}},
		FDs:    []kernel.SetupFD{{Proc: 0, FD: 0, Inum: 1, Off: 1}},
	}
	c := call("lseek", 0, map[string]int64{"fd": 0, "delta": 2, "wset": 1})
	for name, fresh := range kernels() {
		res, swapped := kerneltest.Check(fresh, kernel.TestCase{ID: "lseek2", Setup: setup, Calls: [2]kernel.Call{c, c}})
		if res.ConflictFree {
			t.Errorf("%s: idempotent lseek pair unexpectedly conflict-free", name)
		}
		if res.Res != swapped {
			t.Errorf("%s: idempotent lseeks must commute: %v vs %v", name, res.Res, swapped)
		}
	}
}

// Operations in different processes never share FD state.
func TestCrossProcessFDsConflictFree(t *testing.T) {
	setup := kernel.Setup{
		Files:  []kernel.SetupFile{{Name: "f0", Inum: 1}, {Name: "f1", Inum: 2}},
		Inodes: []kernel.SetupInode{{Inum: 1, Len: 1}, {Inum: 2, Len: 1}},
		FDs: []kernel.SetupFD{
			{Proc: 0, FD: 0, Inum: 1},
			{Proc: 1, FD: 0, Inum: 2},
		},
	}
	cf := checkConflicts(t, setup,
		call("read", 0, map[string]int64{"fd": 0}),
		call("read", 1, map[string]int64{"fd": 0}))
	if !cf["linux"] || !cf["sv6"] {
		t.Errorf("cross-process reads of different files should be conflict-free: %v", cf)
	}
}

func TestCheckReportsCommuted(t *testing.T) {
	setup := kernel.Setup{}
	tc := kernel.TestCase{
		ID:    "create2",
		Setup: setup,
		Calls: [2]kernel.Call{
			call("open", 0, map[string]int64{"fname": 1, "creat": 1, "anyfd": 1}),
			call("open", 1, map[string]int64{"fname": 2, "creat": 1, "anyfd": 1}),
		},
	}
	res, swapped := kerneltest.Check(func() kernel.Kernel { return unix.New(unix.SV6) }, tc)
	if res.Res != swapped {
		t.Errorf("sv6 per-core allocation should make results order-independent: %v vs %v",
			res.Res, swapped)
	}
}

// Conflict reports are sorted and shown by cell name, so the slots of two
// pipes must not share names: one traced region that hands a page through
// each of two pipes reports both pipes' slot 0.
func TestConflictReportsTellPipesApart(t *testing.T) {
	setup := kernel.Setup{
		Pipes: []kernel.SetupPipe{{ID: 1}, {ID: 2}},
		FDs: []kernel.SetupFD{
			{Proc: 0, FD: 0, Pipe: true, PipeID: 1, WriteEnd: true},
			{Proc: 0, FD: 1, Pipe: true, PipeID: 2, WriteEnd: true},
			{Proc: 1, FD: 0, Pipe: true, PipeID: 1},
			{Proc: 1, FD: 1, Pipe: true, PipeID: 2},
		},
	}
	want := map[string][]string{
		"linux": {"pipe[1].item[0]", "pipe[2].item[0]"},
		"sv6":   {"pipe[1].item[0]", "pipe[1].full[0]", "pipe[2].item[0]", "pipe[2].full[0]"},
	}
	for name, fresh := range kernels() {
		k := fresh()
		k.Apply(setup)
		mem := k.Memory()
		mem.Start()
		for fd := int64(0); fd < 2; fd++ {
			if r := k.Exec(0, call("write", 0, map[string]int64{"fd": fd, "val": 7 + fd})); r.Code != 1 {
				t.Fatalf("%s: write to pipe %d = %v", name, fd+1, r)
			}
			if r := k.Exec(1, call("read", 1, map[string]int64{"fd": fd})); r.Code != 1 || r.Data != 7+fd {
				t.Fatalf("%s: read from pipe %d = %v", name, fd+1, r)
			}
		}
		mem.Stop()
		seen := map[string]bool{}
		for _, c := range mem.Conflicts() {
			if seen[c.CellName] {
				t.Errorf("%s: two conflicting cells are both named %s", name, c.CellName)
			}
			seen[c.CellName] = true
		}
		for _, cell := range want[name] {
			if !seen[cell] {
				t.Errorf("%s: no conflict reported on %s: %v", name, cell, mem.Conflicts())
			}
		}
	}
}
