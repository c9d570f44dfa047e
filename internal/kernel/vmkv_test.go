package kernel_test

import (
	"testing"

	"repro/internal/kernel"
	"repro/internal/kernel/memkv"
	"repro/internal/kernel/memvm"
)

// vmkvKernels are the two non-POSIX reference kernels: memvm for the "vm"
// spec and memkv for the "kv" spec. kerneltest's TestRegisteredImpls holds
// them, as every registered Impl, to the fresh-kernel and conflict oracles.
var vmkvKernels = map[string]func() kernel.Kernel{
	"memvm": func() kernel.Kernel { return memvm.New() },
	"memkv": func() kernel.Kernel { return memkv.New() },
}

// TestVMKVWarmSetupAllocatesNothing pins what a setup costs memvm and memkv
// once they have applied it before: both keep a page's or a key's cells
// from its first touch, so applying the setup again and resetting it
// allocates nothing, where re-making the cells at every setup cost 6
// allocations a page or a key.
func TestVMKVWarmSetupAllocatesNothing(t *testing.T) {
	setups := map[string]kernel.Setup{
		"memvm": &memvm.Setup{VMAs: []memvm.SetupVMA{
			{Proc: 0, Page: 1, Val: 3, Writable: true},
			{Proc: 1, Page: 2, Val: 4},
		}},
		"memkv": &memkv.Setup{KVs: []memkv.SetupKV{{Key: 0, Val: 1}, {Key: 2, Val: 3}}},
	}
	for name, fresh := range vmkvKernels {
		k := fresh()
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
