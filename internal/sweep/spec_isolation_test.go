package sweep

import (
	"testing"

	"repro/internal/kvspec"
	"repro/internal/model"
	"repro/internal/queuespec"
	"repro/internal/spec"
	"repro/internal/vmspec"
)

// TestCacheIsolatesSpecs pins the spec-identity plumbing of the cache
// keys: two specs sharing one cache directory never serve each other's
// entries. A queue sweep after a warm posix sweep is fully cold (and vice
// versa), while each spec's own rerun is fully warm — so a shared cache
// costs nothing in correctness and loses nothing in incrementality. A warm
// rerun is served by its cells alone, so each spec then sweeps a kernel no
// cell was stored for, which reads every pair's TESTGEN entry: that tier
// too kept each spec's own entries.
func TestCacheIsolatesSpecs(t *testing.T) {
	cache, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	posixOps, err := spec.OpSet(model.Spec, "stat,close")
	if err != nil {
		t.Fatal(err)
	}
	queueOps, err := spec.OpSet(queuespec.Spec, "send_any,recv_any")
	if err != nil {
		t.Fatal(err)
	}
	vmOps, err := spec.OpSet(vmspec.Spec, "memread,memwrite")
	if err != nil {
		t.Fatal(err)
	}
	kvOps, err := spec.OpSet(kvspec.Spec, "get,put")
	if err != nil {
		t.Fatal(err)
	}
	cfgs := map[string]Config{}
	for name, c := range map[string]Config{
		"posix": {Spec: model.Spec, Ops: posixOps},
		"queue": {Spec: queuespec.Spec, Ops: queueOps},
		"vm":    {Spec: vmspec.Spec, Ops: vmOps},
		"kv":    {Spec: kvspec.Spec, Ops: kvOps},
	} {
		c.Cache, c.Kernels = cache, []KernelSpec{implSpec(c.Spec, t)}
		cfgs[name] = c
	}
	const pairs = 3 // two ops each

	run := func(what string, cfg Config, want CacheStats) {
		t.Helper()
		res, err := runSweep(cfg)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if res.Cache != want {
			t.Errorf("%s: stats %+v, want %+v", what, res.Cache, want)
		}
	}
	cold := CacheStats{TestgenMisses: pairs, CheckMisses: pairs}
	order := []string{"posix", "queue", "vm", "kv"}

	run("cold posix", cfgs["posix"], cold)
	// No other spec may be served posix entries: each one's first sweep
	// over the shared directory is fully cold.
	for _, name := range order[1:] {
		run("cold "+name+" after warm posix", cfgs[name], cold)
	}
	// And none of those sweeps may have disturbed another spec's entries.
	for _, name := range order {
		run("warm "+name, cfgs[name], CacheStats{CheckHits: pairs})
	}
	for _, name := range order {
		cfg := cfgs[name]
		impl := cfg.Kernels[0]
		cfg.Kernels = []KernelSpec{{Name: impl.Name + "-uncached", New: impl.New}}
		run("uncached kernel on warm "+name, cfg, CacheStats{TestgenHits: pairs, CheckMisses: pairs})
	}
}

// TestFleetSessionKeyIsolatesSpecs pins the fleet coordinator's session
// hashing: identical op lists and kernel lists under different specs must
// derive different session keys, so two fleets sweeping, say, a "vm"
// universe and a "kv" universe with coincidentally matching op name sets
// never join one pair table. Same-spec specs still coalesce.
func TestFleetSessionKeyIsolatesSpecs(t *testing.T) {
	base := FleetSweepSpec{Ops: []string{"alpha", "beta"}, Kernels: []string{"impl"}}
	keys := map[string]string{}
	for _, name := range []string{"posix", "queue", "vm", "kv"} {
		s := base
		s.Spec = name
		keys[name] = s.Key()
	}
	for a, ka := range keys {
		for b, kb := range keys {
			if a != b && ka == kb {
				t.Errorf("specs %q and %q share session key %s", a, b, ka)
			}
		}
	}
	same := base
	same.Spec = "vm"
	if same.Key() != keys["vm"] {
		t.Error("identical fleet specs derived different session keys")
	}
}

// implSpec picks a spec's first implementation binding as a sweep kernel.
func implSpec(sp spec.Spec, t *testing.T) KernelSpec {
	t.Helper()
	impls := sp.Impls()
	if len(impls) == 0 {
		t.Fatalf("%s: no implementations", sp.Name())
	}
	return impls[0]
}
