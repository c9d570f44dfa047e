package kernel_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/kernel"
	"repro/internal/kernel/kerneltest"
	"repro/internal/kernel/unix"
)

// The two designs implement one specification with different sharing, so
// random call sequences must produce identical observable results when the
// specification is deterministic. To keep outcomes comparable the generator
// avoids the intentionally nondeterministic corners: descriptor allocation
// runs in lowest-FD mode on both kernels (no anyfd flag) and mmap is always
// MAP_FIXED. Inode numbers differ between kernels by design (sv6 never
// reuses them), so stat-family V1 values are masked. A call both designs
// refuse — a write past kernel.MaxFilePages panics — ends the sequence.

type randomCall struct {
	call    kernel.Call
	maskIno bool
}

func genCall(r *rand.Rand) randomCall {
	c, maskIno := kerneltest.PosixCall(r)
	return randomCall{call: c, maskIno: maskIno}
}

func genSetup(r *rand.Rand) kernel.Setup {
	var s unix.Setup
	nInodes := r.Intn(3) + 1
	for i := 1; i <= nInodes; i++ {
		ln := int64(r.Intn(3))
		pages := map[int64]int64{}
		for p := int64(0); p < ln; p++ {
			pages[p] = int64(r.Intn(5) + 20)
		}
		s.Inodes = append(s.Inodes, unix.SetupInode{Inum: int64(i), Len: ln, Pages: pages})
	}
	used := map[int64]bool{}
	for i := 0; i < r.Intn(3)+1; i++ {
		nm := int64(r.Intn(4))
		if used[nm] {
			continue
		}
		used[nm] = true
		s.Files = append(s.Files, unix.SetupFile{Name: nm, Inum: int64(r.Intn(nInodes) + 1)})
	}
	for proc := 0; proc < 2; proc++ {
		for fd := int64(0); fd < int64(r.Intn(3)); fd++ {
			s.FDs = append(s.FDs, unix.SetupFD{
				Proc: proc, FD: fd,
				Inum: int64(r.Intn(nInodes) + 1),
				Off:  int64(r.Intn(3)),
			})
		}
	}
	return &s
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

// designs is one kernel of each POSIX design, given the same setup.
type designs struct{ lin, sv kernel.Kernel }

func newDesigns(setup kernel.Setup) designs {
	ds := designs{unix.New(unix.Linux), unix.New(unix.SV6)}
	ds.lin.Apply(setup)
	ds.sv.Apply(setup)
	return ds
}

// exec runs rc on both designs. It describes a disagreement, or reports
// that both refused the call.
func (ds designs) exec(core int, rc randomCall) (diff string, refused bool) {
	rl, lref := execRefusing(ds.lin, core, rc.call)
	rs, sref := execRefusing(ds.sv, core, rc.call)
	switch {
	case lref != sref:
		return fmt.Sprintf("%v refused by one design: linux %v, sv6 %v", rc.call, lref, sref), false
	case lref:
		return "", true
	}
	if rl, rs = maskResult(rc, rl), maskResult(rc, rs); rl != rs {
		return fmt.Sprintf("%v diverged: linux=%v sv6=%v", rc.call, rl, rs), false
	}
	return "", false
}

// execRefusing runs c on k, turning the panic of a write past
// kernel.MaxFilePages into refused.
func execRefusing(k kernel.Kernel, core int, c kernel.Call) (r kernel.Result, refused bool) {
	defer func() {
		if p := recover(); p != nil {
			if !strings.Contains(fmt.Sprint(p), "past a file's") {
				panic(p)
			}
			refused = true
		}
	}()
	return k.Exec(core, c), false
}

func TestDifferentialKernels(t *testing.T) {
	const seeds = 150
	const callsPerSeed = 30
	for seed := int64(0); seed < seeds; seed++ {
		r := rand.New(rand.NewSource(seed))
		ds := newDesigns(genSetup(r))
		for i := 0; i < callsPerSeed; i++ {
			rc := genCall(r)
			diff, refused := ds.exec(r.Intn(2), rc)
			if diff != "" {
				t.Fatalf("seed %d call %d: %s", seed, i, diff)
			}
			if refused {
				break
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
		var setup unix.Setup
		for i := 1; i <= nInodes; i++ {
			ln := int64(r.Intn(4))
			pages := map[int64]int64{}
			for p := int64(0); p < ln; p++ {
				pages[p] = int64(r.Intn(5) + 20)
			}
			setup.Inodes = append(setup.Inodes, unix.SetupInode{Inum: int64(i), Len: ln, Pages: pages})
		}
		setup.Files = append(setup.Files, unix.SetupFile{Name: 0, Inum: 1})
		for proc := 0; proc < 2; proc++ {
			for fdn := int64(0); fdn < 3; fdn++ {
				setup.FDs = append(setup.FDs, unix.SetupFD{
					Proc: proc, FD: fdn,
					Inum: int64(r.Intn(nInodes) + 1),
					Off:  int64(r.Intn(5)), // includes offsets at and past EOF
				})
			}
		}
		ds := newDesigns(&setup)
		for i := 0; i < callsPerSeed; i++ {
			rc := genOffsetCall(r)
			diff, refused := ds.exec(r.Intn(2), rc)
			if diff != "" {
				t.Fatalf("seed %d call %d: %s", seed, i, diff)
			}
			if refused {
				break
			}
		}
	}
}

// Determinism: replaying one sequence on fresh kernels reproduces results.
func TestKernelDeterminism(t *testing.T) {
	for _, fresh := range []func() kernel.Kernel{
		func() kernel.Kernel { return unix.New(unix.Linux) },
		func() kernel.Kernel { return unix.New(unix.SV6) },
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

// byteSource makes fuzz bytes the draws of a rand.Rand: r.Intn(n), for n up
// to 256, is the next byte mod n, and 0 once the bytes run out.
type byteSource struct{ data []byte }

func (s *byteSource) Int63() int64 {
	if len(s.data) == 0 {
		return 0
	}
	b := s.data[0]
	s.data = s.data[1:]
	return int64(b) << 32 // Int31 is the byte
}

func (s *byteSource) Seed(int64) {}

// fuzzSetup draws a setup the way genSetup does, with file lengths, pages
// and descriptor offsets reaching two past kernel.MaxFilePages.
func fuzzSetup(r *rand.Rand) kernel.Setup {
	var s unix.Setup
	nInodes := r.Intn(3) + 1
	for i := 1; i <= nInodes; i++ {
		in := unix.SetupInode{Inum: int64(i), Len: int64(r.Intn(kernel.MaxFilePages + 3)), Pages: map[int64]int64{}}
		for pg := int64(0); pg < in.Len; pg++ {
			if r.Intn(2) == 1 {
				in.Pages[pg] = int64(r.Intn(30))
			}
		}
		s.Inodes = append(s.Inodes, in)
	}
	for name := int64(0); name < 4; name++ {
		if r.Intn(2) == 1 {
			s.Files = append(s.Files, unix.SetupFile{Name: name, Inum: int64(r.Intn(nInodes) + 1)})
		}
	}
	for proc := 0; proc < 2; proc++ {
		n := int64(r.Intn(3))
		for fd := int64(0); fd < n; fd++ {
			s.FDs = append(s.FDs, unix.SetupFD{
				Proc: proc, FD: fd,
				Inum: int64(r.Intn(nInodes) + 1),
				Off:  int64(r.Intn(kernel.MaxFilePages + 3)),
			})
		}
	}
	return &s
}

// extentSeed draws f0 -> inode 1 of length 10 whose one page is page 9, fd
// 0 on it, and stat(f0): a setup Admit took until files were bounded, on
// which sv6, reconciling lengths over the first 8 pages only, said 8 where
// Linux said 10.
var extentSeed = []byte{
	0, 10, // one inode, of length 10
	0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 5, // no page but page 9, holding 5
	1, 0, 0, 0, 0, // f0 -> inode 1, and no other name
	1, 0, 0, 0, // proc 0: fd 0 on inode 1 at offset 0; proc 1: none
	0, 4, 0, // stat(f0) from proc 0
}

// FuzzPosixDesignsAgree is the cross-kernel differential with inputs the
// fuzzer steers: the bytes draw a setup (fuzzSetup) and a call sequence
// (kerneltest.PosixCall), and the two designs must return equal results
// once inode numbers are masked, or both refuse — Admit the setup, or a
// kernel a write past the file bound.
func FuzzPosixDesignsAgree(f *testing.F) {
	want := &unix.Setup{
		Files:  []unix.SetupFile{{Name: 0, Inum: 1}},
		Inodes: []unix.SetupInode{{Inum: 1, Len: 10, Pages: map[int64]int64{9: 5}}},
		FDs:    []unix.SetupFD{{Proc: 0, FD: 0, Inum: 1}},
	}
	if got := fuzzSetup(rand.New(&byteSource{extentSeed})); !reflect.DeepEqual(got, want) {
		f.Fatalf("the extent seed draws %+v", got)
	}
	f.Add(extentSeed)
	for seed := int64(0); seed < 16; seed++ {
		data := make([]byte, 96)
		rand.New(rand.NewSource(seed)).Read(data)
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		src := &byteSource{data}
		r := rand.New(src)
		tc := kernel.TestCase{ID: "fuzz", Setup: fuzzSetup(r)}
		if kernel.Admit(&tc) != nil {
			return
		}
		ds := newDesigns(tc.Setup)
		for i := 0; i < 40 && len(src.data) > 0; i++ {
			rc := genCall(r)
			diff, refused := ds.exec(r.Intn(2), rc)
			if diff != "" {
				t.Fatalf("call %d on %+v: %s", i, tc.Setup, diff)
			}
			if refused {
				return
			}
		}
	})
}
