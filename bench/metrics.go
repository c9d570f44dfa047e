package main

import (
	"encoding/json"
	"strings"
)

// The tables in this file are the benchmark's contract: BENCHMARK.json at
// the root of the repository is `bench manifest` printed to a file, and a
// test proves the two agree and that every run emits exactly these names.

// runSeconds is how long one run measures. The driver makes 4 + 22 runs per
// workload inside 57 minutes, builds and set-ups included: two workloads
// leave each run 70 seconds, of which set-up takes 10 to 15.
const runSeconds = 45

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
	// Bound is the share of the parent's median by which an end-to-end
	// metric may get worse; per-layer metrics have none.
	Bound float64 `json:"bound,omitempty"`
}

var workloadDefs = []workloadDef{
	{"cold_sweep", "uncached in-process sweep of every spec (posix all 18 ops on linux+sv6, vm, kv, queue): the paper's headline path, every pipeline layer works, solver/ANALYZE dominant, no cache, no wire"},
	{"serve_warm", "seeded 9-18-op posix sweeps streamed by 2 Dial clients from a warm dir-cache server: dir reads, entry decode, api codec and HTTP streaming do the work, solver and kernels none"},
}

// Wall time is reported as a multiple of the reference pass timed around it
// (ref.go), because milliseconds on this shared box follow the box: the same
// code ran twice as fast at one hour as at another. setup_s has to be in
// seconds and so still does; it and the ratio carry the widest bound the
// driver's contract allows (see README.md, "Noise").
var endToEndDefs = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"wall_p50_x", "x", "lower", 0.25},
	{"alloc_mb_per_iter", "MB", "lower", 0.03},
	{"peak_rss_mb", "MB", "lower", 0.20},
}

var (
	allKernels = []string{"linux", "sv6", "memvm", "memkv", "memq"}
	allSpecs   = []string{"posix", "vm", "kv", "queue"}
	cacheKinds = []string{"dir", "mem", "http", "tiered"}
)

var perLayerDefs = buildPerLayerDefs()

func buildPerLayerDefs() []metricDef {
	var d []metricDef
	add := func(unit, better string, names ...string) {
		for _, n := range names {
			d = append(d, metricDef{Name: n, Unit: unit, Better: better})
		}
	}
	// sym: the solver corpus replays CommuteCond and PC∧¬Eq of every path
	// on a fresh solver; the rest is the analyzer's own solver.
	add("count", "lower", "sym.corpus_queries", "sym.corpus_sat_calls", "sym.sat_calls", "sym.budget_hits")
	add("ms", "lower", "sym.corpus_solve_ms", "sym.search_ms")
	add("ratio", "lower", "sym.corpus_dup_share")
	add("ratio", "higher", "sym.intern_hit_share")
	add("ms", "lower", "symx.single_op_ms")
	add("count", "lower", "symx.single_op_paths")
	for _, s := range allSpecs {
		add("ms", "lower", "analyzer.ms."+s)
	}
	add("count", "lower", "analyzer.paths", "analyzer.unknown_paths")
	add("count", "higher", "analyzer.commutative_paths")
	add("ms", "lower", "analyzer.max_pair_ms")
	add("ms", "lower", "testgen.ms")
	add("count", "lower", "testgen.tests")
	add("ratio", "lower", "testgen.tests_per_path")
	for _, k := range allKernels {
		add("us", "lower", "kernel.fresh_us."+k, "kernel.group_us."+k, "kernel.test_us."+k)
	}
	add("count", "lower", "kernel.groups", "kernel.tests")
	add("ms", "lower", "kernel.replay_all_ms", "kernel.replay_per_pair_ms")
	add("ns", "lower", "mtrace.access_ns")
	add("us", "lower", "mtrace.snapshot_reset_us")
	add("ms", "lower", "sweep.wall_j1_ms", "sweep.self_ms", "sweep.analyze_phase_ms",
		"sweep.testgen_phase_ms", "sweep.check_phase_ms", "sweep.solver_phase_ms")
	add("ratio", "higher", "sweep.parallel_efficiency")
	for _, b := range cacheKinds {
		add("us", "lower", "cache."+b+".get_tests_us", "cache."+b+".put_tests_us",
			"cache."+b+".get_cell_us", "cache."+b+".put_cell_us")
		add("ms", "lower", "cache."+b+".warm_sweep_ms")
	}
	add("us", "lower", "cache.entry_encode_us", "cache.entry_decode_us")
	add("B", "lower", "cache.tests_entry_bytes")
	add("us", "lower", "fleet.claim_us", "fleet.complete_us", "fleet.rpc_claim_us")
	add("count", "lower", "fleet.claims_per_sweep")
	add("ratio", "lower", "fleet.slowdown_x")
	add("ns", "lower", "flight.do_ns")
	add("us", "lower", "api.encode_update_us", "api.decode_update_us", "api.encode_result_us", "api.decode_result_us")
	add("B", "lower", "api.update_bytes", "api.result_bytes")
	add("ms", "lower", "serve.overhead_ms", "serve.first_update_ms")
	add("us", "lower", "serve.healthz_us", "serve.metrics_us")
	// runtime.* describe the traced run's own workload, not a fixed corpus.
	add("count", "higher", "runtime.iters")
	add("ms", "lower", "runtime.wall_p50_ms", "runtime.wall_tail_ms")
	add("%", "higher", "runtime.wall_tail_pct")
	add("s", "lower", "runtime.cpu_s_per_iter")
	add("count", "lower", "runtime.gc_cycles_per_iter")
	add("ms", "lower", "runtime.gc_pause_ms_per_iter")
	add("ratio", "lower", "trace.overhead_share")
	return d
}

func workloadNames() []string {
	out := make([]string, len(workloadDefs))
	for i, w := range workloadDefs {
		out[i] = w.Name
	}
	return out
}

// manifest renders BENCHMARK.json. Per-layer metrics have no bound, and
// metricDef omits a zero one.
func manifest() ([]byte, error) {
	m := struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadDef `json:"workloads"`
		EndToEnd   []metricDef   `json:"end_to_end"`
		PerLayer   []metricDef   `json:"per_layer"`
	}{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		Workloads:  workloadDefs,
		EndToEnd:   endToEndDefs,
		PerLayer:   perLayerDefs,
	}
	var b strings.Builder
	enc := json.NewEncoder(&b)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	if err := enc.Encode(m); err != nil {
		return nil, err
	}
	return []byte(b.String()), nil
}
