package sweep

import (
	"log/slog"
	"sync"

	"repro/internal/obs"
	"repro/internal/sym"
)

// Process-wide sweep metrics, recorded into the obs.Default registry that
// `commuter serve` exposes at /metrics. They aggregate across every sweep
// in the process (a serve instance's whole client population); per-run
// numbers stay on Result/PairResult.
var (
	metricSweepsInflight = obs.Default.Gauge(
		"commuter_sweeps_inflight",
		"Sweeps currently executing in this process.")
	metricPairsTotal = obs.Default.CounterVec(
		"commuter_sweep_pairs_total",
		"Finished sweep pairs by outcome (computed or served from cache).",
		"outcome")
	metricPhaseSeconds = obs.Default.HistogramVec(
		"commuter_sweep_phase_seconds",
		"Per-pair wall time spent in each pipeline phase.",
		obs.DefBuckets, "phase")
	metricTestgenHits = obs.Default.Counter(
		"commuter_cache_testgen_hits_total",
		"TESTGEN-tier cache hits (pairs whose symbolic analysis was skipped).")
	metricTestgenMisses = obs.Default.Counter(
		"commuter_cache_testgen_misses_total",
		"TESTGEN-tier cache misses (pairs whose symbolic analysis ran).")
	metricCheckHits = obs.Default.Counter(
		"commuter_cache_check_hits_total",
		"CHECK-tier cache hits (kernel cells served without replaying tests).")
	metricCheckMisses = obs.Default.Counter(
		"commuter_cache_check_misses_total",
		"CHECK-tier cache misses (kernel cells recomputed under mtrace).")
	metricCacheWriteErrors = obs.Default.CounterVec(
		"commuter_cache_write_errors_total",
		"Cache entries that could not be stored (best-effort writes), by backend kind.",
		"backend")
	metricBackendRequests = obs.Default.CounterVec(
		"commuter_cache_backend_requests_total",
		"Cache backend lookups by backend kind, tier and outcome.",
		"backend", "tier", "outcome")
	metricCoalescedShared = obs.Default.CounterVec(
		"commuter_coalesced_requests_total",
		"Sweep stages served by sharing a concurrent identical execution instead of recomputing.",
		"tier")
	metricCoalesceHandoffs = obs.Default.CounterVec(
		"commuter_coalesce_handoffs_total",
		"Canceled coalescing leaders that handed execution to a surviving waiter.",
		"tier")
	metricFleetLeasesIssued = obs.Default.Counter(
		"commuter_fleet_leases_issued_total",
		"Pair leases issued by this coordinator (including re-issues).")
	metricFleetSteals = obs.Default.Counter(
		"commuter_fleet_leases_stolen_total",
		"Expired or released leases re-issued to another worker (work stealing).")
	metricFleetRequeues = obs.Default.Counter(
		"commuter_fleet_requeues_total",
		"Leases released by their worker (cancellation) and returned to the pending queue.")
	metricFleetDupResults = obs.Default.Counter(
		"commuter_fleet_duplicate_results_total",
		"Posted pair results dropped because the pair was already complete.")
	metricFleetPairsExecuted = obs.Default.Counter(
		"commuter_fleet_pairs_executed_total",
		"Pairs this server executed under a fleet lease.")
	// The two coordinator-view series carry no worker label: worker names
	// are minted per RunFleet call, so a label would grow a series per
	// sweep per member, never removed. GET /v1/fleet/status has the
	// per-worker breakdown.
	metricFleetPairsLeased = obs.Default.Gauge(
		"commuter_fleet_pairs_leased",
		"Pair leases currently held across all workers (coordinator view).")
	metricFleetPairsDone = obs.Default.Counter(
		"commuter_fleet_pairs_completed_total",
		"Pairs completed across all workers (coordinator view).")
	metricSatCalls = obs.Default.Counter(
		"commuter_solver_sat_calls_total",
		"Backtracking satisfiability searches started by sweep pairs.")
	metricMemoHits = obs.Default.Counter(
		"commuter_solver_memo_hits_total",
		"Satisfiability searches not run because the pair's solver remembered the answer.")
	metricBudgetHits = obs.Default.Counter(
		"commuter_solver_budget_exhaustions_total",
		"Solver searches that exhausted the step budget (unknown verdicts).")
)

// The intern table is process-wide and already keeps its own totals and
// size; expose them at scrape time instead of mirroring every bump.
func init() {
	obs.Default.CounterFunc(
		"commuter_sym_intern_hits_total",
		"Hash-consing intern-table hits (constructors that reused a live node).",
		func() float64 { h, _ := sym.InternStats(); return float64(h) })
	obs.Default.CounterFunc(
		"commuter_sym_intern_misses_total",
		"Hash-consing intern-table misses (newly interned nodes).",
		func() float64 { _, m := sym.InternStats(); return float64(m) })
	obs.Default.GaugeFunc(
		"commuter_sym_intern_entries",
		"Hash-consing intern-table entries, live or collected and not yet swept.",
		func() float64 { return float64(sym.InternSize()) })
}

// putErrWarned dedups the write-degradation warning per backend handle,
// so a full disk (or dead cache peer) logs one warning, not one line per
// failed entry; the per-entry record is the write_errors counter.
var putErrWarned sync.Map // Backend -> *sync.Once

// reportPutError counts one failed best-effort store against its backend
// and logs the degradation once per backend handle at warn level.
func reportPutError(b Backend, err error) {
	metricCacheWriteErrors.With(backendKind(b)).Inc()
	once, _ := putErrWarned.LoadOrStore(b, new(sync.Once))
	once.(*sync.Once).Do(func() {
		slog.Warn("sweep: cache writes failing; sweeps continue but stay cold",
			"backend", b.String(), "err", err)
	})
}

// observeBackendGet records one backend lookup outcome on the labeled
// per-backend counter (the unlabeled per-tier counters stay as the stable
// dashboard names; this adds the per-backend breakdown).
func observeBackendGet(b Backend, tier string, hit bool) {
	outcome := "miss"
	if hit {
		outcome = "hit"
	}
	metricBackendRequests.With(backendKind(b), tier, outcome).Inc()
}

// observePair folds one finished pair into the process-wide metrics and
// emits the engine's debug log line.
func observePair(pr *PairResult) {
	outcome := "computed"
	switch {
	case pr.Cached:
		outcome = "cached"
	case pr.Coalesced:
		outcome = "coalesced"
	}
	metricPairsTotal.With(outcome).Inc()
	// Phase times describe work actually done; cached and coalesced pairs
	// did none, and folding their zeros in would skew the histograms.
	if outcome == "computed" {
		metricPhaseSeconds.With("analyze").Observe(pr.Phases.AnalyzeMS / 1e3)
		metricPhaseSeconds.With("testgen").Observe(pr.Phases.TestgenMS / 1e3)
		metricPhaseSeconds.With("check").Observe(pr.Phases.CheckMS / 1e3)
		metricPhaseSeconds.With("solver").Observe(pr.Phases.SolverMS / 1e3)
	}
	if pr.Solver.SatCalls > 0 {
		metricSatCalls.Add(uint64(pr.Solver.SatCalls))
	}
	if pr.Solver.MemoHits > 0 {
		metricMemoHits.Add(uint64(pr.Solver.MemoHits))
	}
	if pr.Solver.BudgetHits > 0 {
		metricBudgetHits.Add(uint64(pr.Solver.BudgetHits))
	}
	slog.Debug("sweep: pair done",
		"pair", pr.Pair(),
		"tests", pr.Tests,
		"cached", pr.Cached,
		"coalesced", pr.Coalesced,
		"unknown", pr.Unknown,
		"elapsed_ms", pr.ElapsedMS,
		"check_groups", pr.CheckGroups,
		"analyze_ms", pr.Phases.AnalyzeMS,
		"testgen_ms", pr.Phases.TestgenMS,
		"check_ms", pr.Phases.CheckMS,
		"solver_ms", pr.Phases.SolverMS,
		"sat_calls", pr.Solver.SatCalls,
		"memo_hits", pr.Solver.MemoHits)
}
