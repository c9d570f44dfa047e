package kernel_test

import (
	"testing"

	"repro/internal/kernel"
	"repro/internal/kernel/kerneltest"
	"repro/internal/kernel/unix"
)

// fullTable is f0 -> inode 1 open at every descriptor of process 0's table
// but skip, the one left free (skip outside the table fills it).
func fullTable(skip int64) kernel.Setup {
	s := &unix.Setup{
		Files:  []unix.SetupFile{{Name: 0, Inum: 1}},
		Inodes: []unix.SetupInode{{Inum: 1}},
	}
	for fd := int64(0); fd < kernel.MaxFD; fd++ {
		if fd != skip {
			s.FDs = append(s.FDs, unix.SetupFD{Proc: 0, FD: fd, Inum: 1})
		}
	}
	return s
}

// TestLowestFDPastTableIsEMFILE holds both designs to the posix spec's
// descriptor table: a lowest-FD allocation that finds no free descriptor
// below kernel.MaxFD fails with EMFILE, after the effects the spec makes
// before it. open keeps a name it created; pipe, whose read end took the
// last free slot, gives that slot back. The last case is the shape of the
// lowest-FD corpus's open_open_path24_test0: two truncating opens of f0 on
// a full table are EMFILE twice in both orders, as the spec's path says.
func TestLowestFDPastTableIsEMFILE(t *testing.T) {
	emfile := kernel.Errno(kernel.EMFILE)
	open := call("open", 0, map[string]int64{"fname": 0, "trunc": 1})
	openOpen := kernel.TestCase{ID: "open_open_path24_test0", Setup: fullTable(kernel.MaxFD), Calls: [2]kernel.Call{open, open}}
	for name, fresh := range kernels() {
		k := fresh()
		k.Apply(fullTable(kernel.MaxFD))
		if r := k.Exec(0, call("open", 0, map[string]int64{"fname": 1, "creat": 1})); r != emfile {
			t.Errorf("%s: open(creat f1) on a full table = %v, want EMFILE", name, r)
		}
		if r := k.Exec(0, call("stat", 0, map[string]int64{"fname": 1})); r.Code != 0 || r.V2 != 1 {
			t.Errorf("%s: stat(f1) after the failed open = %v, want the created name", name, r)
		}
		if r := k.Exec(1, call("open", 1, map[string]int64{"fname": 1})); r.Code != 0 {
			t.Errorf("%s: open(f1) in process 1 = %v, want descriptor 0", name, r)
		}

		k = fresh()
		k.Apply(fullTable(1))
		if r := k.Exec(0, call("pipe", 0, nil)); r != emfile {
			t.Errorf("%s: pipe with one free slot = %v, want EMFILE", name, r)
		}
		if r := k.Exec(0, call("open", 0, map[string]int64{"fname": 0})); r.Code != 1 {
			t.Errorf("%s: open after the failed pipe = %v, want the freed slot 1", name, r)
		}

		if res, swapped := kerneltest.Check(fresh, openOpen); res.Res != [2]kernel.Result{emfile, emfile} || swapped != res.Res {
			t.Errorf("%s: open || open on a full table = %v, swapped %v, want EMFILE twice in both orders",
				name, res.Res, swapped)
		}
	}
}
