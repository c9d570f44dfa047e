package kernel_test

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"repro/internal/kernel"
	"repro/internal/kernel/kerneltest"
	"repro/internal/kernel/unix"
)

// within stamps setup on every test, making them one CheckTests group.
func within(setup kernel.Setup, tests ...kernel.TestCase) []kernel.TestCase {
	for i := range tests {
		tests[i].Setup = setup
	}
	return tests
}

// TestReplayerGroupIsolation pins the group protocol itself: a test that
// mutates heavily must not leak into the next test of the same group, and
// a whole group must not leak into the next group's differently-shaped
// setup — probed with deterministic scenarios rather than random ones.
func TestReplayerGroupIsolation(t *testing.T) {
	for name, fresh := range kernels() {
		rep := kernel.NewReplayer(fresh)
		destroy := kernel.TestCase{ID: "destroy", Calls: [2]kernel.Call{
			call("unlink", 0, map[string]int64{"fname": 0}),
			call("open", 1, map[string]int64{"fname": 1, "creat": 1}),
		}}
		probe := kernel.TestCase{ID: "probe", Calls: [2]kernel.Call{
			call("stat", 0, map[string]int64{"fname": 0}),
			call("stat", 1, map[string]int64{"fname": 1}),
		}}
		// One Replayer, two groups: the file group, then an empty setup —
		// the file from the first group's setup must be gone.
		tests := append(within(oneFile(), destroy, probe, destroy, probe), within(&unix.Setup{}, probe)...)
		got := make([]kernel.CheckResult, len(tests))
		groups, err := rep.CheckTests(context.Background(), tests, func(i int, res kernel.CheckResult) { got[i] = res })
		if err != nil || groups != 2 {
			t.Fatalf("%s: %d groups, err %v", name, groups, err)
		}
		// Both probes see f0 intact (ino 1, 1 link, 2 pages) and f1 absent.
		for _, i := range []int{1, 3} {
			r := got[i]
			if r.Res[0].Code != 0 || r.Res[0].V2 != 1 || r.Res[0].V3 != 2 {
				t.Errorf("%s: probe %d: stat(f0) = %v, want intact file", name, i, r.Res[0])
			}
			if r.Res[1].Code != -kernel.ENOENT {
				t.Errorf("%s: probe %d: stat(f1) = %v, want ENOENT", name, i, r.Res[1])
			}
		}
		// And both destroy runs behave identically (second replays from the
		// same state as the first).
		if got[0].Res != got[2].Res || got[0].ConflictFree != got[2].ConflictFree {
			t.Errorf("%s: destroy runs diverged: %+v vs %+v", name, got[0], got[2])
		}
		if res := got[4]; res.Res[0].Code != -kernel.ENOENT || res.Res[1].Code != -kernel.ENOENT {
			t.Errorf("%s: empty-setup probe = %v, want ENOENT/ENOENT", name, res.Res)
		}
	}
}

// TestReplayerEarlyStop checks that a loop cancelled after its first test
// stops there and leaves the replayer reusable.
func TestReplayerEarlyStop(t *testing.T) {
	for name, fresh := range kernels() {
		rep := kernel.NewReplayer(fresh)
		probe := kernel.TestCase{ID: "probe", Calls: [2]kernel.Call{
			call("stat", 0, map[string]int64{"fname": 0}),
			call("stat", 1, map[string]int64{"fname": 0}),
		}}
		ctx, cancel := context.WithCancel(context.Background())
		n := 0
		_, err := rep.CheckTests(ctx, within(oneFile(), probe, probe, probe), func(int, kernel.CheckResult) {
			n++
			cancel()
		})
		if !errors.Is(err, context.Canceled) || n != 1 {
			t.Fatalf("%s: early stop ran %d tests (err %v), want 1 and context.Canceled", name, n, err)
		}
		_, err = rep.CheckTests(context.Background(), within(oneFile(), probe), func(_ int, res kernel.CheckResult) {
			if res.Res[0].Code != 0 {
				t.Errorf("%s: post-stop probe = %v", name, res.Res[0])
			}
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

// TestOrderDependenceWithoutAccess pins a test whose results depend on the
// order of its calls on both designs: write(fd 1) fails with EBADF before
// open takes descriptor 1 and succeeds after it. Only kerneltest.Check runs
// the swapped order, and it must see the results differ; the Replayer runs
// the calls once and must report what the fresh kernel's traced run
// reports. The write's failed lookup loads descriptor 1's slot, which the
// open stores, so both designs must call the test conflicting on
// proc0.fd[1]: when a lookup of an absent descriptor loaded nothing, both
// called it conflict-free.
func TestOrderDependenceWithoutAccess(t *testing.T) {
	tc := kernel.TestCase{ID: "write-open", Setup: &unix.Setup{
		Files:  []unix.SetupFile{{Name: 0, Inum: 1}},
		Inodes: []unix.SetupInode{{Inum: 1}},
		FDs:    []unix.SetupFD{{Proc: 0, FD: 0, Inum: 1}},
	}, Calls: [2]kernel.Call{
		call("write", 0, map[string]int64{"fd": 1, "val": 5}),
		call("open", 0, map[string]int64{"fname": 0}),
	}}
	for name, fresh := range kernels() {
		want, swapped := kerneltest.Check(fresh, tc)
		if want.Res == swapped {
			t.Errorf("%s: write(fd 1) || open gives %v in both orders, want the order to matter", name, want.Res)
		}
		slot := false
		for _, c := range want.Conflicts {
			slot = slot || c.CellName == "proc0.fd[1]"
		}
		if want.ConflictFree || !slot {
			t.Errorf("%s: write(fd 1) || open conflicts on %v, want proc0.fd[1] among them", name, want.Conflicts)
		}
		n := 0
		_, err := kernel.NewReplayer(fresh).CheckTests(context.Background(), []kernel.TestCase{tc}, func(_ int, got kernel.CheckResult) {
			n++
			if got.Res != want.Res || got.ConflictFree != want.ConflictFree || !reflect.DeepEqual(got.Conflicts, want.Conflicts) {
				t.Errorf("%s: replayed %+v != fresh %+v", name, got, want)
			}
		})
		if err != nil || n != 1 {
			t.Errorf("%s: %d results, err %v", name, n, err)
		}
	}
}

// countingKernel counts the calls a Replayer executes on k.
type countingKernel struct {
	kernel.Kernel
	execs *int
}

func (k countingKernel) Exec(core int, c kernel.Call) kernel.Result {
	*k.execs++
	return k.Kernel.Exec(core, c)
}

// TestReplayExecutesEachCallOnce pins that CHECK runs a test's two calls
// once, traced, whatever the verdict: a conflicting test is not replayed in
// the other order.
func TestReplayExecutesEachCallOnce(t *testing.T) {
	lseek := call("lseek", 0, map[string]int64{"fd": 0, "delta": 2, "wset": 1})
	stat := call("stat", 0, map[string]int64{"fname": 0})
	setup := oneFile()
	setup.FDs = []unix.SetupFD{{Proc: 0, FD: 0, Inum: 1, Off: 1}}
	tests := within(setup,
		kernel.TestCase{ID: "conflicting", Calls: [2]kernel.Call{lseek, lseek}},
		kernel.TestCase{ID: "read-shared", Calls: [2]kernel.Call{stat, stat}})
	for name, fresh := range kernels() {
		execs := 0
		rep := kernel.NewReplayer(func() kernel.Kernel { return countingKernel{fresh(), &execs} })
		conflicting := 0
		_, err := rep.CheckTests(context.Background(), tests, func(_ int, res kernel.CheckResult) {
			if !res.ConflictFree {
				conflicting++
			}
		})
		if err != nil || conflicting == 0 {
			t.Fatalf("%s: %d conflicting tests, err %v; the lseek pair must conflict", name, conflicting, err)
		}
		if execs != 2*len(tests) {
			t.Errorf("%s: %d calls executed for %d tests, want 2 a test", name, execs, len(tests))
		}
	}
}
