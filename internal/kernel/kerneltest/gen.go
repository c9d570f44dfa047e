package kerneltest

import (
	"math/rand"

	"repro/internal/kernel"
	"repro/internal/kernel/memkv"
	"repro/internal/kernel/memq"
	"repro/internal/kernel/memvm"
	"repro/internal/kernel/unix"
)

// Gen draws the random setups, of the spec's own setup type, and calls
// one spec's kernels are exercised with.
type Gen struct {
	Setup func(*rand.Rand) kernel.Setup
	Call  func(*rand.Rand) kernel.Call
}

// Gens maps a registered spec's name to its generator, so the harnesses
// can run over every Impl the registry lists; a new spec adds its entry
// here and its kernels are covered by registration.
var Gens = map[string]Gen{
	"posix": {posixSetup, posixReplayCall},
	"queue": {queueSetup, queueCall},
	"vm":    {vmSetup, vmCall},
	"kv":    {kvSetup, kvCall},
}

// PosixCall draws one POSIX call whose outcome both POSIX kernels must
// agree on: descriptor allocation stays in lowest-FD mode (no anyfd flag)
// and mmap is always MAP_FIXED. maskIno marks the stat family, whose inode
// numbers legitimately differ between kernels (sv6 never reuses them).
func PosixCall(r *rand.Rand) (c kernel.Call, maskIno bool) {
	proc := r.Intn(2)
	name := func() int64 { return int64(r.Intn(4)) }
	fd := func() int64 { return int64(r.Intn(4)) }
	page := func() int64 { return int64(r.Intn(3)) }
	val := func() int64 { return int64(r.Intn(5) + 10) }
	flag := func() int64 { return int64(r.Intn(2)) }
	switch r.Intn(18) {
	case 0:
		return kernel.Call{Op: "open", Proc: proc, Args: map[string]int64{
			"fname": name(), "creat": flag(), "excl": flag(), "trunc": flag()}}, false
	case 1:
		return kernel.Call{Op: "link", Proc: proc, Args: map[string]int64{
			"old": name(), "new": name()}}, false
	case 2:
		return kernel.Call{Op: "unlink", Proc: proc, Args: map[string]int64{
			"fname": name()}}, false
	case 3:
		return kernel.Call{Op: "rename", Proc: proc, Args: map[string]int64{
			"src": name(), "dst": name()}}, false
	case 4:
		return kernel.Call{Op: "stat", Proc: proc, Args: map[string]int64{
			"fname": name()}}, true
	case 5:
		return kernel.Call{Op: "fstat", Proc: proc, Args: map[string]int64{
			"fd": fd()}}, true
	case 6:
		return kernel.Call{Op: "lseek", Proc: proc, Args: map[string]int64{
			"fd": fd(), "delta": int64(r.Intn(5) - 1), "wset": flag(), "wend": flag()}}, false
	case 7:
		return kernel.Call{Op: "close", Proc: proc, Args: map[string]int64{
			"fd": fd()}}, false
	case 8:
		return kernel.Call{Op: "pipe", Proc: proc, Args: map[string]int64{}}, false
	case 9:
		return kernel.Call{Op: "read", Proc: proc, Args: map[string]int64{
			"fd": fd()}}, false
	case 10:
		return kernel.Call{Op: "write", Proc: proc, Args: map[string]int64{
			"fd": fd(), "val": val()}}, false
	case 11:
		return kernel.Call{Op: "pread", Proc: proc, Args: map[string]int64{
			"fd": fd(), "off": page()}}, false
	case 12:
		return kernel.Call{Op: "pwrite", Proc: proc, Args: map[string]int64{
			"fd": fd(), "off": page(), "val": val()}}, false
	case 13:
		return kernel.Call{Op: "mmap", Proc: proc, Args: map[string]int64{
			"page": page(), "fixed": 1, "anon": flag(), "wr": flag(), "fd": fd(), "foff": page()}}, false
	case 14:
		return kernel.Call{Op: "munmap", Proc: proc, Args: map[string]int64{
			"page": page()}}, false
	case 15:
		return kernel.Call{Op: "mprotect", Proc: proc, Args: map[string]int64{
			"page": page(), "wr": flag()}}, false
	case 16:
		return kernel.Call{Op: "memread", Proc: proc, Args: map[string]int64{
			"page": page()}}, false
	default:
		return kernel.Call{Op: "memwrite", Proc: proc, Args: map[string]int64{
			"page": page(), "val": val()}}, false
	}
}

// posixReplayCall is PosixCall with the knobs a cross-kernel comparison
// must avoid (anyfd descriptor allocation, non-fixed mmap) flipped at
// random: the harnesses compare one kernel against itself, so
// implementation-specific nondeterminism is in scope.
func posixReplayCall(r *rand.Rand) kernel.Call {
	c, _ := PosixCall(r)
	switch c.Op {
	case "open", "pipe":
		c.Args["anyfd"] = int64(r.Intn(2))
	case "mmap":
		c.Args["fixed"] = int64(r.Intn(2))
	}
	return c
}

// posixSetup builds a random but valid setup exercising every setup
// dimension: files (with shared inodes for hard links), inode contents,
// file and pipe descriptors, and anonymous and file-backed VMAs. It is
// broader than the cross-kernel differential's setups, which stay within
// the dimensions both POSIX kernels render identically.
func posixSetup(r *rand.Rand) kernel.Setup {
	var s unix.Setup
	inums := []int64{}
	for i := 0; i < r.Intn(4); i++ {
		inum := int64(1 + r.Intn(3))
		s.Files = append(s.Files, unix.SetupFile{Name: int64(i), Inum: inum})
		inums = append(inums, inum)
	}
	seen := map[int64]bool{}
	for _, inum := range inums {
		if seen[inum] {
			continue
		}
		seen[inum] = true
		in := unix.SetupInode{Inum: inum, ExtraLinks: r.Intn(2), Len: int64(r.Intn(4))}
		if r.Intn(2) == 0 {
			in.Pages = map[int64]int64{}
			for pg := int64(0); pg < in.Len; pg++ {
				if r.Intn(2) == 0 {
					in.Pages[pg] = int64(10 + r.Intn(20))
				}
			}
		}
		s.Inodes = append(s.Inodes, in)
	}
	for i := 0; i < r.Intn(3); i++ {
		var items []int64
		for j := 0; j < r.Intn(3); j++ {
			items = append(items, int64(30+r.Intn(10)))
		}
		s.Pipes = append(s.Pipes, unix.SetupPipe{ID: int64(i), Items: items})
	}
	for proc := 0; proc < 2; proc++ {
		for fd := int64(0); fd < int64(r.Intn(3)); fd++ {
			sd := unix.SetupFD{Proc: proc, FD: fd}
			if len(s.Pipes) > 0 && r.Intn(3) == 0 {
				sd.Pipe = true
				sd.PipeID = s.Pipes[r.Intn(len(s.Pipes))].ID
				sd.WriteEnd = r.Intn(2) == 0
			} else if len(inums) > 0 {
				sd.Inum = inums[r.Intn(len(inums))]
				sd.Off = int64(r.Intn(3))
			} else {
				sd.Inum = 1
			}
			s.FDs = append(s.FDs, sd)
		}
	}
	for proc := 0; proc < 2; proc++ {
		for page := int64(0); page < int64(r.Intn(3)); page++ {
			sv := unix.SetupVMA{Proc: proc, Page: page, Writable: r.Intn(2) == 0}
			if len(inums) == 0 || r.Intn(2) == 0 {
				sv.Anon = true
				sv.Val = int64(50 + r.Intn(10))
			} else {
				sv.Inum = inums[r.Intn(len(inums))]
				sv.Foff = int64(r.Intn(3))
			}
			s.VMAs = append(s.VMAs, sv)
		}
	}
	return &s
}

// queueSetup seeds the ordered queue and the unordered queues of cores 0
// and 1 at random, each at most once.
func queueSetup(r *rand.Rand) kernel.Setup {
	var s memq.Setup
	seen := map[int64]bool{}
	for i := 0; i < r.Intn(3); i++ {
		core := int64(r.Intn(3)) - 1
		if seen[core] {
			continue
		}
		seen[core] = true
		var items []int64
		for j := 0; j < r.Intn(3); j++ {
			items = append(items, int64(70+r.Intn(10)))
		}
		s.Queues = append(s.Queues, memq.SetupQueue{Core: core, Items: items})
	}
	return &s
}

func queueCall(r *rand.Rand) kernel.Call {
	proc := r.Intn(2)
	switch r.Intn(5) {
	case 0:
		return kernel.Call{Op: "send", Proc: proc, Args: map[string]int64{"val": int64(r.Intn(9))}}
	case 1:
		return kernel.Call{Op: "recv", Proc: proc, Args: map[string]int64{}}
	case 2:
		return kernel.Call{Op: "send_any", Proc: proc, Args: map[string]int64{"val": int64(r.Intn(9))}}
	case 3:
		return kernel.Call{Op: "recv_any", Proc: proc, Args: map[string]int64{}}
	}
	return kernel.Call{Op: "status", Proc: proc, Args: map[string]int64{}}
}

func vmSetup(r *rand.Rand) kernel.Setup {
	var s memvm.Setup
	seen := map[[2]int64]bool{}
	for i := 0; i < r.Intn(6); i++ {
		proc, page := r.Intn(2), int64(r.Intn(3))
		at := [2]int64{int64(proc), page}
		if seen[at] {
			continue
		}
		seen[at] = true
		s.VMAs = append(s.VMAs, memvm.SetupVMA{
			Proc: proc, Page: page,
			Val: int64(r.Intn(8)), Writable: r.Intn(2) == 0,
		})
	}
	return &s
}

func vmCall(r *rand.Rand) kernel.Call {
	proc := r.Intn(2)
	page := int64(r.Intn(3))
	switch r.Intn(5) {
	case 0:
		return kernel.Call{Op: "mmap", Proc: proc, Args: map[string]int64{
			"page": page, "fixed": int64(r.Intn(2)), "wr": int64(r.Intn(2))}}
	case 1:
		return kernel.Call{Op: "munmap", Proc: proc, Args: map[string]int64{"page": page}}
	case 2:
		return kernel.Call{Op: "mprotect", Proc: proc, Args: map[string]int64{
			"page": page, "wr": int64(r.Intn(2))}}
	case 3:
		return kernel.Call{Op: "memread", Proc: proc, Args: map[string]int64{"page": page}}
	}
	return kernel.Call{Op: "memwrite", Proc: proc, Args: map[string]int64{
		"page": page, "val": int64(r.Intn(8))}}
}

func kvSetup(r *rand.Rand) kernel.Setup {
	var s memkv.Setup
	seen := map[int64]bool{}
	for i := 0; i < r.Intn(4); i++ {
		key := int64(r.Intn(3))
		if seen[key] {
			continue
		}
		seen[key] = true
		s.KVs = append(s.KVs, memkv.SetupKV{Key: key, Val: int64(r.Intn(4))})
	}
	return &s
}

func kvCall(r *rand.Rand) kernel.Call {
	proc := r.Intn(2)
	key := int64(r.Intn(3))
	switch r.Intn(4) {
	case 0:
		return kernel.Call{Op: "get", Proc: proc, Args: map[string]int64{"key": key}}
	case 1:
		return kernel.Call{Op: "put", Proc: proc, Args: map[string]int64{
			"key": key, "val": int64(r.Intn(4))}}
	case 2:
		return kernel.Call{Op: "delete", Proc: proc, Args: map[string]int64{"key": key}}
	}
	lo := int64(r.Intn(3))
	return kernel.Call{Op: "scan", Proc: proc, Args: map[string]int64{
		"lo": lo, "hi": lo + int64(r.Intn(3))}}
}
