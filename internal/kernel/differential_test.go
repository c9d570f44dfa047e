package kernel_test

import (
	"math/rand"
	"testing"

	"repro/internal/kernel"
	"repro/internal/kernel/kerneltest"
	"repro/internal/kernel/monokernel"
	"repro/internal/kernel/svsix"
)

// The two kernels implement one specification with different sharing, so
// random call sequences must produce identical observable results when the
// specification is deterministic. To keep outcomes comparable the generator
// avoids the intentionally nondeterministic corners: descriptor allocation
// runs in lowest-FD mode on both kernels (no anyfd flag) and mmap is always
// MAP_FIXED. Inode numbers differ between kernels by design (sv6 never
// reuses them), so stat-family V1 values are masked.

type randomCall struct {
	call    kernel.Call
	maskIno bool
}

func genCall(r *rand.Rand) randomCall {
	c, maskIno := kerneltest.PosixCall(r)
	return randomCall{call: c, maskIno: maskIno}
}

func genSetup(r *rand.Rand) kernel.Setup {
	var s kernel.Setup
	nInodes := r.Intn(3) + 1
	for i := 1; i <= nInodes; i++ {
		ln := int64(r.Intn(3))
		pages := map[int64]int64{}
		for p := int64(0); p < ln; p++ {
			pages[p] = int64(r.Intn(5) + 20)
		}
		s.Inodes = append(s.Inodes, kernel.SetupInode{Inum: int64(i), Len: ln, Pages: pages})
	}
	used := map[int64]bool{}
	for i := 0; i < r.Intn(3)+1; i++ {
		nm := int64(r.Intn(4))
		if used[nm] {
			continue
		}
		used[nm] = true
		s.Files = append(s.Files, kernel.SetupFile{Name: kernel.Fname(nm), Inum: int64(r.Intn(nInodes) + 1)})
	}
	for proc := 0; proc < 2; proc++ {
		for fd := int64(0); fd < int64(r.Intn(3)); fd++ {
			s.FDs = append(s.FDs, kernel.SetupFD{
				Proc: proc, FD: fd,
				Inum: int64(r.Intn(nInodes) + 1),
				Off:  int64(r.Intn(3)),
			})
		}
	}
	return s
}

// maskResult hides fields that legitimately differ between implementations
// (inode numbers come from different allocators).
func maskResult(rc randomCall, r kernel.Result) kernel.Result {
	if rc.maskIno && r.Code == 0 {
		r.V1 = 0
	}
	// pipe ids surface as negative pseudo-inodes in fstat; already masked
	// by maskIno. open's returned descriptor is comparable in lowest-FD
	// mode. mmap returns the fixed page. Nothing else to mask.
	return r
}

func TestDifferentialKernels(t *testing.T) {
	const seeds = 150
	const callsPerSeed = 30
	for seed := int64(0); seed < seeds; seed++ {
		r := rand.New(rand.NewSource(seed))
		setup := genSetup(r)
		lin := monokernel.New()
		sv := svsix.New()
		lin.Apply(setup)
		sv.Apply(setup)
		for i := 0; i < callsPerSeed; i++ {
			rc := genCall(r)
			core := r.Intn(2)
			rl := maskResult(rc, lin.Exec(core, rc.call))
			rs := maskResult(rc, sv.Exec(core, rc.call))
			if rl != rs {
				t.Fatalf("seed %d call %d: %v diverged: linux=%v sv6=%v",
					seed, i, rc.call, rl, rs)
			}
		}
	}
}

// genOffsetCall draws from the offset-carrying operations only: lseek and
// the positioned/cursor reads and writes, plus open/close to churn the
// descriptor table. File-offset state is where the two kernels diverge
// most structurally (per-FD offsets vs sv6's descriptor sharing rules),
// and the general generator reaches these interleavings too rarely to
// stress EOF clamping, whence-relative seeks, and offset advancement.
func genOffsetCall(r *rand.Rand) randomCall {
	proc := r.Intn(2)
	fd := func() int64 { return int64(r.Intn(4)) }
	off := func() int64 { return int64(r.Intn(5) - 1) } // includes -1 and past-EOF
	val := func() int64 { return int64(r.Intn(5) + 10) }
	flag := func() int64 { return int64(r.Intn(2)) }
	switch r.Intn(8) {
	case 0:
		return randomCall{call: kernel.Call{Op: "lseek", Proc: proc, Args: map[string]int64{
			"fd": fd(), "delta": off(), "wset": flag(), "wend": flag()}}}
	case 1:
		return randomCall{call: kernel.Call{Op: "pread", Proc: proc, Args: map[string]int64{
			"fd": fd(), "off": off()}}}
	case 2:
		return randomCall{call: kernel.Call{Op: "pwrite", Proc: proc, Args: map[string]int64{
			"fd": fd(), "off": off(), "val": val()}}}
	case 3:
		return randomCall{call: kernel.Call{Op: "read", Proc: proc, Args: map[string]int64{
			"fd": fd()}}}
	case 4:
		return randomCall{call: kernel.Call{Op: "write", Proc: proc, Args: map[string]int64{
			"fd": fd(), "val": val()}}}
	case 5:
		return randomCall{call: kernel.Call{Op: "open", Proc: proc, Args: map[string]int64{
			"fname": int64(r.Intn(4)), "creat": flag(), "trunc": flag()}}}
	case 6:
		return randomCall{call: kernel.Call{Op: "close", Proc: proc, Args: map[string]int64{
			"fd": fd()}}}
	default:
		// Interrogate the cursor without moving it: lseek by zero.
		return randomCall{call: kernel.Call{Op: "lseek", Proc: proc, Args: map[string]int64{
			"fd": fd()}}}
	}
}

// TestDifferentialFileOffsets quick-checks the offset-carrying operations
// (lseek/pread/pwrite and the cursor read/write) against both kernels.
// Setups bias toward many descriptors on few inodes with offsets at and
// beyond EOF, the corner the general differential test under-covers.
func TestDifferentialFileOffsets(t *testing.T) {
	const seeds = 200
	const callsPerSeed = 40
	for seed := int64(0); seed < seeds; seed++ {
		r := rand.New(rand.NewSource(1_000_000 + seed))
		nInodes := r.Intn(2) + 1
		var setup kernel.Setup
		for i := 1; i <= nInodes; i++ {
			ln := int64(r.Intn(4))
			pages := map[int64]int64{}
			for p := int64(0); p < ln; p++ {
				pages[p] = int64(r.Intn(5) + 20)
			}
			setup.Inodes = append(setup.Inodes, kernel.SetupInode{Inum: int64(i), Len: ln, Pages: pages})
		}
		setup.Files = append(setup.Files, kernel.SetupFile{Name: kernel.Fname(0), Inum: 1})
		for proc := 0; proc < 2; proc++ {
			for fdn := int64(0); fdn < 3; fdn++ {
				setup.FDs = append(setup.FDs, kernel.SetupFD{
					Proc: proc, FD: fdn,
					Inum: int64(r.Intn(nInodes) + 1),
					Off:  int64(r.Intn(5)), // includes offsets at and past EOF
				})
			}
		}
		lin := monokernel.New()
		sv := svsix.New()
		lin.Apply(setup)
		sv.Apply(setup)
		for i := 0; i < callsPerSeed; i++ {
			rc := genOffsetCall(r)
			core := r.Intn(2)
			rl := maskResult(rc, lin.Exec(core, rc.call))
			rs := maskResult(rc, sv.Exec(core, rc.call))
			if rl != rs {
				t.Fatalf("seed %d call %d: %v diverged: linux=%v sv6=%v",
					seed, i, rc.call, rl, rs)
			}
		}
	}
}

// Determinism: replaying one sequence on fresh kernels reproduces results.
func TestKernelDeterminism(t *testing.T) {
	for _, fresh := range []func() kernel.Kernel{
		func() kernel.Kernel { return monokernel.New() },
		func() kernel.Kernel { return svsix.New() },
	} {
		r1 := rand.New(rand.NewSource(42))
		r2 := rand.New(rand.NewSource(42))
		k1, k2 := fresh(), fresh()
		setup1, setup2 := genSetup(r1), genSetup(r2)
		k1.Apply(setup1)
		k2.Apply(setup2)
		for i := 0; i < 40; i++ {
			c1, c2 := genCall(r1), genCall(r2)
			core1, core2 := r1.Intn(2), r2.Intn(2)
			a := k1.Exec(core1, c1.call)
			b := k2.Exec(core2, c2.call)
			if a != b {
				t.Fatalf("%s: call %d nondeterministic: %v vs %v", k1.Name(), i, a, b)
			}
		}
	}
}
