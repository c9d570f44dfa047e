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
// costs nothing in correctness and loses nothing in incrementality.
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
	posixCfg := Config{Spec: model.Spec, Ops: posixOps, Cache: cache,
		Kernels: []KernelSpec{implSpec(model.Spec, t)}}
	queueCfg := Config{Spec: queuespec.Spec, Ops: queueOps, Cache: cache,
		Kernels: []KernelSpec{implSpec(queuespec.Spec, t)}}

	run := func(what string, cfg Config, wantHits, wantMisses bool) CacheStats {
		t.Helper()
		res, err := runSweep(cfg)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		st := res.Cache
		if wantMisses && st.TestgenMisses == 0 {
			t.Errorf("%s: expected cold TESTGEN tier, got %+v", what, st)
		}
		if !wantMisses && st.TestgenMisses != 0 {
			t.Errorf("%s: expected warm TESTGEN tier, got %+v", what, st)
		}
		if wantHits && st.TestgenHits == 0 {
			t.Errorf("%s: expected TESTGEN hits, got %+v", what, st)
		}
		return st
	}

	vmOps, err := spec.OpSet(vmspec.Spec, "memread,memwrite")
	if err != nil {
		t.Fatal(err)
	}
	kvOps, err := spec.OpSet(kvspec.Spec, "get,put")
	if err != nil {
		t.Fatal(err)
	}
	vmCfg := Config{Spec: vmspec.Spec, Ops: vmOps, Cache: cache,
		Kernels: []KernelSpec{implSpec(vmspec.Spec, t)}}
	kvCfg := Config{Spec: kvspec.Spec, Ops: kvOps, Cache: cache,
		Kernels: []KernelSpec{implSpec(kvspec.Spec, t)}}

	run("cold posix", posixCfg, false, true)
	// No other spec may be served posix entries: each one's first sweep
	// over the shared directory is fully cold.
	run("cold queue after warm posix", queueCfg, false, true)
	run("cold vm after warm posix", vmCfg, false, true)
	run("cold kv after warm posix", kvCfg, false, true)
	// And none of those sweeps may have disturbed another spec's entries.
	run("warm posix", posixCfg, true, false)
	run("warm queue", queueCfg, true, false)
	run("warm vm", vmCfg, true, false)
	run("warm kv", kvCfg, true, false)
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
