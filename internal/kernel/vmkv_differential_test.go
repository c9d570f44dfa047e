package kernel_test

import (
	"testing"

	"repro/internal/kernel"
	"repro/internal/kernel/kerneltest"
	"repro/internal/kernel/memkv"
	"repro/internal/kernel/memvm"
)

// vmkvKernels are the two non-POSIX reference kernels (memvm for the "vm"
// spec, memkv for the "kv" spec) with their kerneltest generators.
var vmkvKernels = map[string]struct {
	fresh func() kernel.Kernel
	gen   kerneltest.Gen
}{
	"memvm": {func() kernel.Kernel { return memvm.New() }, kerneltest.Gens["vm"]},
	"memkv": {func() kernel.Kernel { return memkv.New() }, kerneltest.Gens["kv"]},
}

// TestVMKVReplayerMatchesFresh is the setup snapshot/reset oracle for the
// two kernels: a page in memvm or a binding in memkv, kept from its first
// touch, that a reset fails to return to the state it was born in surfaces
// as a mismatch against two fresh kernels per test.
func TestVMKVReplayerMatchesFresh(t *testing.T) {
	for name, sk := range vmkvKernels {
		t.Run(name, func(t *testing.T) { kerneltest.ReplayMatchesFresh(t, sk.fresh, sk.gen) })
	}
}

// TestVMKVOnlineMatchesLegacyOracle checks the online epoch/bitset
// detector's verdict on the two kernels' cell traffic against the post-hoc
// scan of the access log.
func TestVMKVOnlineMatchesLegacyOracle(t *testing.T) {
	for name, sk := range vmkvKernels {
		t.Run(name, func(t *testing.T) { kerneltest.OnlineMatchesOracle(t, sk.fresh, sk.gen) })
	}
}

// TestVMKVWarmSetupAllocatesNothing pins what a setup costs memvm and memkv
// once they have applied it before: both keep a page's or a key's cells
// from its first touch, so applying the setup again and resetting it
// allocates nothing, where re-making the cells at every setup cost 6
// allocations a page or a key.
func TestVMKVWarmSetupAllocatesNothing(t *testing.T) {
	setups := map[string]kernel.Setup{
		"memvm": {VMAs: []kernel.SetupVMA{
			{Proc: 0, Page: 1, Anon: true, Val: 3, Writable: true},
			{Proc: 1, Page: 2, Anon: true, Val: 4},
		}},
		"memkv": {KVs: []kernel.SetupKV{{Key: 0, Val: 1}, {Key: 2, Val: 3}}},
	}
	for name, sk := range vmkvKernels {
		k := sk.fresh()
		k.Memory().Snapshot()
		run := func() {
			k.Apply(setups[name])
			k.Memory().Reset()
		}
		run()
		if n := testing.AllocsPerRun(10, run); n != 0 {
			t.Errorf("%s: applying a setup again performs %.0f allocations, want 0", name, n)
		}
	}
}
