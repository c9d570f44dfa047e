package kernel_test

import (
	"testing"

	"repro/internal/kernel"
	"repro/internal/kernel/kerneltest"
	"repro/internal/kernel/memq"
)

// TestReplayerMatchesFreshKernels holds the Replayer on the POSIX kernels
// and memq to the fresh-kernel oracle (kerneltest.ReplayMatchesFresh).
func TestReplayerMatchesFreshKernels(t *testing.T) {
	impls := kernels()
	impls["memq"] = func() kernel.Kernel { return memq.New() }
	for name, fresh := range impls {
		t.Run(name, func(t *testing.T) {
			gen := kerneltest.Gens["posix"]
			if name == "memq" {
				gen = kerneltest.Gens["queue"]
			}
			kerneltest.ReplayMatchesFresh(t, fresh, gen)
		})
	}
}

// TestReplayerGroupIsolation pins the group protocol itself: a test that
// mutates heavily must not leak into the next test of the same group, and
// a whole group must not leak into the next group's differently-shaped
// setup — probed with deterministic scenarios rather than random ones.
func TestReplayerGroupIsolation(t *testing.T) {
	for name, fresh := range kernels() {
		rep := kernel.NewReplayer(fresh)
		setup := oneFile()
		destroy := kernel.TestCase{ID: "destroy", Calls: [2]kernel.Call{
			call("unlink", 0, map[string]int64{"fname": 0}),
			call("open", 1, map[string]int64{"fname": 1, "creat": 1}),
		}}
		probe := kernel.TestCase{ID: "probe", Calls: [2]kernel.Call{
			call("stat", 0, map[string]int64{"fname": 0}),
			call("stat", 1, map[string]int64{"fname": 1}),
		}}
		var got []kernel.CheckResult
		err := rep.CheckGroup(setup, []kernel.TestCase{destroy, probe, destroy, probe}, func(res kernel.CheckResult) bool {
			got = append(got, res)
			return true
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
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

		// Next group: empty setup on the same Replayer — the file from the
		// previous group's setup must be gone.
		err = rep.CheckGroup(kernel.Setup{}, []kernel.TestCase{probe}, func(res kernel.CheckResult) bool {
			if res.Res[0].Code != -kernel.ENOENT || res.Res[1].Code != -kernel.ENOENT {
				t.Errorf("%s: empty-setup probe = %v, want ENOENT/ENOENT", name, res.Res)
			}
			return true
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

// TestReplayerEarlyStop checks the fn-returns-false path leaves the
// replayer reusable.
func TestReplayerEarlyStop(t *testing.T) {
	for name, fresh := range kernels() {
		rep := kernel.NewReplayer(fresh)
		probe := kernel.TestCase{ID: "probe", Calls: [2]kernel.Call{
			call("stat", 0, map[string]int64{"fname": 0}),
			call("stat", 1, map[string]int64{"fname": 0}),
		}}
		n := 0
		err := rep.CheckGroup(oneFile(), []kernel.TestCase{probe, probe, probe}, func(kernel.CheckResult) bool {
			n++
			return false
		})
		if err != nil || n != 1 {
			t.Fatalf("%s: early stop ran %d tests (err %v), want 1", name, n, err)
		}
		err = rep.CheckGroup(oneFile(), []kernel.TestCase{probe}, func(res kernel.CheckResult) bool {
			if res.Res[0].Code != 0 {
				t.Errorf("%s: post-stop probe = %v", name, res.Res[0])
			}
			return true
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}
