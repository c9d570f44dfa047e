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
// two kernels: a stale page map entry in memvm or a leaked binding in
// memkv that the lazy-creation OnReset hooks fail to undo surfaces as a
// mismatch against two fresh kernels per test.
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
