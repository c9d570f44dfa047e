// Package sweep is the parallel orchestration engine for the COMMUTER
// pipeline. It fans the per-pair ANALYZE → TESTGEN → CHECK work across a
// configurable worker pool: the mtrace tracer is single-threaded, so
// isolation is per pair (each pair's CHECK owns a kernel.Replayer whose
// kernel has its own mtrace.Memory) and parallelism is across the 171
// unordered pairs of the modeled operations — the pair pool is the engine's
// only scheduler.
//
// The engine optionally consults a content-addressed cache Backend (on
// disk, in memory, a peer server over HTTP, or a tiered stack of those) so
// repeat sweeps are incremental, coalesces identical concurrent cold
// stages into one execution, and streams per-pair progress Events.
package sweep

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/analyzer"
	"repro/internal/flight"
	"repro/internal/kernel"
	"repro/internal/obs"
	"repro/internal/spec"
	"repro/internal/sym"
	"repro/internal/testgen"
)

// KernelSpec is a spec's implementation binding under the name this
// package had for it. The cache identifies kernels by Name alone, so a
// caller supplying a custom New must give it a name distinct from the stock
// implementations (or use a separate cache directory) — otherwise cached
// results computed with the stock kernel are served for the custom one.
type KernelSpec = spec.Impl

// Event is one streaming progress report, emitted after a pair finishes.
// Progress callbacks are serialized by the engine.
type Event struct {
	// Pair is "opA/opB".
	Pair string
	// Done and Total count finished and scheduled pairs.
	Done, Total int
	// Tests is the number of generated test cases for the pair.
	Tests int
	// Cached reports that the pair was served entirely from the cache
	// (TESTGEN tier plus every kernel's CHECK tier entry).
	Cached bool
	// Coalesced reports that at least one of the pair's stages was shared
	// from a concurrent identical execution instead of run here.
	Coalesced bool
	// PairMS is the wall time this pair took, in milliseconds.
	PairMS float64
	// Elapsed is the cumulative wall time since the sweep started.
	Elapsed time.Duration
	// Result points at the finished pair's full result, so streaming
	// consumers (the Client façade, the serve endpoint) get per-pair
	// results as they complete instead of waiting for Run to return. It
	// is immutable once the event fires.
	Result *PairResult
}

// Config describes one sweep.
type Config struct {
	// Spec is the interface specification the swept ops belong to; nil
	// selects the registered "posix" spec. The spec's name is folded
	// into both cache tiers so different specs can share one cache
	// directory without ever colliding.
	Spec spec.Spec
	// Ops is the operation universe; the sweep covers every unordered
	// pair, oriented like the sequential evaluation path (earlier op
	// first).
	Ops []*spec.Op
	// Kernels are the implementations to check each generated test on.
	Kernels []KernelSpec
	// Analyzer tunes ANALYZER. Its Solver must be nil: the engine builds
	// a fresh one per pair, wired to the sweep's context, and a solver
	// shared across pairs would carry budget state between them.
	Analyzer analyzer.Options
	// Testgen tunes TESTGEN; its Solver must be nil like Analyzer's.
	Testgen testgen.Options
	// Workers sizes the pool; <= 0 means runtime.NumCPU().
	Workers int
	// Cache, when non-nil, serves and stores per-pair results. Any
	// Backend works: the on-disk *Cache (OpenCache), an in-memory LRU
	// (NewMemBackend), a peer server (NewHTTPBackend), a Tiered stack,
	// or whatever OpenBackend resolves from a -cache URL.
	Cache Backend
	// Progress, when non-nil, receives one Event per finished pair.
	Progress func(Event)
	// FleetWorker names this process to the fleet coordinator (RunFleet
	// only); empty derives a host-pid-unique name.
	FleetWorker string
}

// KernelCell is one kernel's aggregate verdict for one pair: how many of
// the generated tests ran and how many were not conflict-free.
type KernelCell struct {
	Kernel    string `json:"kernel"`
	Total     int    `json:"total"`
	Conflicts int    `json:"conflicts"`
}

// PairResult is the sweep outcome for one operation pair.
type PairResult struct {
	OpA   string       `json:"op_a"`
	OpB   string       `json:"op_b"`
	Tests int          `json:"tests"`
	Cells []KernelCell `json:"cells,omitempty"`
	// Unknown counts paths whose work exhausted the solver's step
	// budget: analyzer paths with truncated classification plus testgen
	// paths with truncated class enumeration. A nonzero count means the
	// pair's test set — and hence its matrix cell — is a lower bound,
	// not a proof of non-commutativity; downstream rendering marks such
	// pairs instead of presenting them as "never commutes".
	Unknown int `json:"unknown,omitempty"`
	// Cached reports that nothing was recomputed for the pair: the tests
	// came from the TESTGEN tier and every cell from the CHECK tier.
	Cached bool `json:"cached,omitempty"`
	// Coalesced reports that at least one stage's result was shared from
	// a concurrent identical execution (single-flight): this sweep did
	// not run that stage, another in-process sweep did. Phase and solver
	// counters cover only work this sweep performed itself.
	Coalesced bool `json:"coalesced,omitempty"`
	// CheckGroups is the number of distinct setup fingerprints the pair's
	// tests were batched into for CHECK (zero for a cached or coalesced
	// pair, like the phase times). Grouping is deterministic: it depends
	// only on the generated tests.
	CheckGroups int `json:"check_groups,omitempty"`
	// ElapsedMS is the wall time this pair took in this sweep.
	ElapsedMS float64 `json:"elapsed_ms"`
	// StartMS is when this pair started, in milliseconds from the start
	// of its sweep — with ElapsedMS it places the pair on the sweep's
	// timeline, which is what the -trace Chrome export renders.
	StartMS float64 `json:"start_ms,omitempty"`
	// Phases breaks ElapsedMS down by pipeline phase. All zero for a
	// fully cached pair (nothing was recomputed).
	Phases PhaseTimes `json:"phases,omitzero"`
	// Solver counts the pair's symbolic-search work. All zero for a
	// fully cached pair.
	Solver SolverCounters `json:"solver,omitzero"`
}

// PhaseTimes is a per-pair wall-time breakdown by pipeline phase. The
// three phase times are disjoint and their sum is bounded by the pair's
// ElapsedMS (the remainder is cache I/O and scheduling); SolverMS is the
// time inside satisfiability searches, a subset of AnalyzeMS+TestgenMS,
// tracked separately because "make CHECK fast" and "make the solver
// fast" are different optimization targets.
type PhaseTimes struct {
	// AnalyzeMS is the ANALYZE phase: symbolic execution of both
	// permutations plus per-path commutativity classification.
	AnalyzeMS float64 `json:"analyze_ms,omitempty"`
	// TestgenMS is the TESTGEN phase: isomorphism-class enumeration and
	// concrete test construction.
	TestgenMS float64 `json:"testgen_ms,omitempty"`
	// CheckMS is the CHECK phase: replaying generated tests on every
	// kernel under mtrace, summed across kernels.
	CheckMS float64 `json:"check_ms,omitempty"`
	// SolverMS is the wall time inside the solver's backtracking
	// searches (analyzer and testgen solvers combined).
	SolverMS float64 `json:"solver_ms,omitempty"`
}

// SolverCounters aggregates the pair's solver and intern-table traffic.
type SolverCounters struct {
	// SatCalls counts backtracking searches run for this pair.
	SatCalls int64 `json:"sat_calls,omitempty"`
	// MemoHits counts searches not run because the pair's solver
	// remembered the answer.
	MemoHits int64 `json:"memo_hits,omitempty"`
	// BudgetHits counts searches that exhausted the step budget (each
	// one is an "unknown", not a proof; see PairResult.Unknown).
	BudgetHits int64 `json:"budget_exhaustions,omitempty"`
	// InternHits counts intern-table hits observed while the pair ran.
	// The table is process-wide, so under a parallel sweep concurrent
	// pairs' hits land in whichever pair observes them — per-pair
	// attribution is approximate, but the sum across pairs is exact.
	InternHits int64 `json:"intern_hits,omitempty"`
}

// Pair is "opA/opB", the identifier used in progress events.
func (p PairResult) Pair() string { return p.OpA + "/" + p.OpB }

// Result is a completed sweep.
type Result struct {
	// Spec names the swept interface specification.
	Spec string
	// Pairs holds one result per pair, sorted by (OpA, OpB).
	Pairs []PairResult
	// Workers is the resolved pool size.
	Workers int
	// Elapsed is the sweep wall time.
	Elapsed time.Duration
	// Cache counts per-tier hit/miss outcomes during this sweep (all zero
	// when no cache was configured). A TESTGEN miss means the pair's
	// symbolic analysis ran; a CHECK miss means one kernel's tests ran.
	Cache CacheStats
	// CacheWriteErrors counts cache entries (testgen or check tier) that
	// could not be stored (disk full, permissions). Writes are
	// best-effort: a failed store costs incrementality, never the sweep.
	CacheWriteErrors int
}

// TotalTests sums generated tests across pairs.
func (r *Result) TotalTests() int {
	n := 0
	for _, p := range r.Pairs {
		n += p.Tests
	}
	return n
}

// sortPairs puts pair results in the order every completed sweep reports
// them: by (OpA, OpB).
func sortPairs(pairs []PairResult) {
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].OpA != pairs[j].OpA {
			return pairs[i].OpA < pairs[j].OpA
		}
		return pairs[i].OpB < pairs[j].OpB
	})
}

// run is the state one sweep shares across its pairs, whichever driver
// feeds it: RunContext walks the whole pair list, RunFleet pulls leases.
type run struct {
	cfg      Config
	sp       spec.Spec
	workers  int
	start    time.Time
	counters runCounters
}

// newRun resolves cfg's defaults and marks the sweep in flight; the caller
// defers close.
func newRun(cfg Config) (*run, error) {
	if cfg.Analyzer.Solver != nil || cfg.Testgen.Solver != nil {
		return nil, fmt.Errorf("sweep: a sweep cannot share caller-provided solvers across pairs and servers")
	}
	r := &run{cfg: cfg, sp: cfg.Spec, workers: cfg.Workers, start: time.Now()}
	if r.workers <= 0 {
		r.workers = runtime.NumCPU()
	}
	if r.sp == nil {
		var err error
		if r.sp, err = spec.Lookup("posix"); err != nil {
			return nil, fmt.Errorf("sweep: no spec configured and %w", err)
		}
	}
	metricSweepsInflight.Inc()
	return r, nil
}

func (r *run) close() { metricSweepsInflight.Dec() }

// progress reports one finished pair to cfg.Progress; it is not
// synchronized, the driver serializes its calls. pr must be the
// caller's own copy, never an element of a slice that is later sorted:
// consumers may hold the pointer beyond the callback (the streaming façade
// hands it to another goroutine).
func (r *run) progress(pr *PairResult, done, total int) {
	if r.cfg.Progress == nil {
		return
	}
	r.cfg.Progress(Event{
		Pair:      pr.Pair(),
		Done:      done,
		Total:     total,
		Tests:     pr.Tests,
		Cached:    pr.Cached,
		Coalesced: pr.Coalesced,
		PairMS:    pr.ElapsedMS,
		Elapsed:   time.Since(r.start),
		Result:    pr,
	})
}

// result assembles the completed sweep from its pairs, sorting them in
// place by (OpA, OpB).
func (r *run) result(pairs []PairResult) *Result {
	sortPairs(pairs)
	res := &Result{Spec: r.sp.Name(), Pairs: pairs, Workers: r.workers, Elapsed: time.Since(r.start)}
	if r.cfg.Cache != nil {
		res.Cache = r.counters.stats()
		res.CacheWriteErrors = int(r.counters.writeErrs.Load())
	}
	return res
}

// pairJob is one pair for the executor. id is the driver's own name for the
// job, handed back to its callback untouched (RunFleet: the lease ID).
type pairJob struct {
	a, b *spec.Op
	id   string
}

// executor is the engine's one worker pool: r.workers goroutines drain a
// channel of pair jobs through runPair and hand each finished pair to the
// driver's callback, on the worker's goroutine. The first error — a pair's
// or the callback's — cancels ctx, which stops the pairs in flight and
// turns the jobs still queued into no-ops.
type executor struct {
	parent context.Context
	ctx    context.Context
	cancel context.CancelCauseFunc
	jobs   chan pairJob
	wg     sync.WaitGroup
}

// startExecutor starts the pool. queue is how many submitted jobs may wait
// for a worker before submit blocks. The driver submits its jobs and then
// calls wait, exactly once, even when it gives up early.
func (r *run) startExecutor(ctx context.Context, queue int, done func(context.Context, pairJob, PairResult) error) *executor {
	e := &executor{parent: ctx, jobs: make(chan pairJob, queue)}
	e.ctx, e.cancel = context.WithCancelCause(ctx)
	for w := 0; w < r.workers; w++ {
		e.wg.Add(1)
		go func() {
			defer e.wg.Done()
			for j := range e.jobs {
				if e.ctx.Err() != nil {
					continue
				}
				pr, err := r.runPair(e.ctx, j.a, j.b)
				if err == nil {
					err = done(e.ctx, j, pr)
				}
				if err != nil {
					e.cancel(err)
				}
			}
		}()
	}
	return e
}

// submit queues one job; false means the executor has stopped (failure or
// cancellation) and the job will not run.
func (e *executor) submit(j pairJob) bool {
	select {
	case e.jobs <- j:
		return true
	case <-e.ctx.Done():
		return false
	}
}

// wait closes the queue, waits for every worker to exit and returns the
// sweep's error. Cancellation trumps per-pair errors: an in-flight pair
// observes the cancelled context as its own failure, and the caller should
// see the context's error, not an artifact of where cancellation landed.
func (e *executor) wait() error {
	close(e.jobs)
	e.wg.Wait()
	defer e.cancel(nil)
	if err := e.parent.Err(); err != nil {
		return err
	}
	if e.ctx.Err() != nil {
		return context.Cause(e.ctx)
	}
	return nil
}

// RunContext executes the sweep described by cfg and returns the per-pair
// results. Pair computation is deterministic, so the result is independent
// of worker count and scheduling; only timing fields vary.
//
// Cancellation stops the sweep promptly: no new pairs start, in-flight
// pairs abandon their symbolic work between (and, via the solver Stop
// hook, inside) satisfiability searches, every worker exits before
// RunContext returns, and the call reports ctx.Err(). Cache writes are
// never interrupted mid-entry — each goes through a temp file and an
// atomic rename, and a pair that did not complete stores nothing — so a
// cancelled sweep leaves only complete cache entries behind.
func RunContext(ctx context.Context, cfg Config) (*Result, error) {
	r, err := newRun(cfg)
	if err != nil {
		return nil, err
	}
	defer r.close()

	jobs := Pairs(cfg.Ops)
	var (
		mu      sync.Mutex // serializes results and Progress
		results = make([]PairResult, 0, len(jobs))
	)
	ex := r.startExecutor(ctx, 0, func(_ context.Context, _ pairJob, pr PairResult) error {
		mu.Lock()
		defer mu.Unlock()
		results = append(results, pr)
		r.progress(&pr, len(results), len(jobs))
		return nil
	})
	for _, j := range jobs {
		if !ex.submit(pairJob{a: j[0], b: j[1]}) {
			break
		}
	}
	if err := ex.wait(); err != nil {
		return nil, err
	}
	return r.result(results), nil
}

// tierCounters is one cache tier's hit/miss outcome for one run.
type tierCounters struct{ hits, misses atomic.Int64 }

// runCounters accumulates this run's cache outcomes. They are counted
// per run, not per cache handle, because one handle may serve concurrent
// sweeps (the serve endpoint shares its cache across requests) and a
// handle-wide count would attribute the neighbors' traffic to this run.
type runCounters struct {
	testgen, check tierCounters
	writeErrs      atomic.Int64
}

func (c *runCounters) stats() CacheStats {
	return CacheStats{
		TestgenHits:   int(c.testgen.hits.Load()),
		TestgenMisses: int(c.testgen.misses.Load()),
		CheckHits:     int(c.check.hits.Load()),
		CheckMisses:   int(c.check.misses.Load()),
	}
}

// Process-wide single-flight groups: concurrent sweeps (a serve
// instance's whole client population) coalesce identical cold stages
// through them, keyed by backend identity plus content address, so 1,000
// clients requesting the same cold pair trigger one ANALYZE+TESTGEN and
// one CHECK per kernel, not 1,000.
var (
	testgenFlights flight.Group[stageOutcome[[]kernel.TestCase]]
	checkFlights   flight.Group[stageOutcome[KernelCell]]
)

// flightID scopes coalescing to one backend's key space: sweeps sharing a
// backend (or both running cacheless) coalesce, sweeps over different
// backends never observe each other's results.
func flightID(b Backend, key string) string {
	return flightScope(b) + "|" + key
}

// flightScope names the storage behind b. A directory path or a peer URL
// already does, so two handles on one of those share flights; any other
// backend is scoped to its handle, because a String() like "mem:4096"
// renders alike for distinct stores, and a waiter sharing the leader's
// result would leave its own store cold.
func flightScope(b Backend) string {
	switch b := b.(type) {
	case nil:
		return "nocache"
	case *Cache, *HTTPBackend:
		return b.String()
	case *TieredBackend:
		return "tiered(" + flightScope(b.fast) + "," + flightScope(b.slow) + ")"
	default:
		return fmt.Sprintf("%s@%p", b, b)
	}
}

// stageOutcome is a stage's shareable result: what a flight's leader
// publishes to its waiters.
type stageOutcome[T any] struct {
	val T
	// unknown counts budget-truncated paths behind val (see
	// PairResult.Unknown); nonzero means val is a lower bound.
	unknown   int
	fromCache bool
}

// stage is one cache tier's protocol around a computation: probe the
// tier, compute on a miss, store the result best-effort — all of it under
// process-wide single-flight, so of N concurrent identical cold requests
// exactly one executes (and populates the cache) while the rest share its
// result. The two tiers differ only in the fields below and in
// the compute closure runPair hands to run.
type stage[T any] struct {
	tier    string
	flights *flight.Group[stageOutcome[T]]
	get     func(Backend, string) (T, bool)
	put     func(Backend, string, T) error
	counts  func(*runCounters) *tierCounters
	// mHits and mMisses are the tier's process-wide counters.
	mHits, mMisses *obs.Counter
}

var (
	testgenStage = stage[[]kernel.TestCase]{
		tier:    TierTestgen,
		flights: &testgenFlights,
		get:     Backend.GetTests,
		put:     Backend.PutTests,
		counts:  func(c *runCounters) *tierCounters { return &c.testgen },
		mHits:   metricTestgenHits,
		mMisses: metricTestgenMisses,
	}
	checkStage = stage[KernelCell]{
		tier:    TierCheck,
		flights: &checkFlights,
		get: func(b Backend, key string) (KernelCell, bool) {
			if cl, ok := b.GetCell(key); ok {
				return *cl, true
			}
			return KernelCell{}, false
		},
		put:     Backend.PutCell,
		counts:  func(c *runCounters) *tierCounters { return &c.check },
		mHits:   metricCheckHits,
		mMisses: metricCheckMisses,
	}
)

// run returns the stage's outcome for key, computing only on a cache miss.
// A cached value usable rejects (nil accepts every one) counts as a miss,
// and the computed value overwrites it. compute reports its value plus the
// unknown count behind it. out is
// marked when the outcome was shared from a concurrent identical
// execution; compute and the cache accounting always belong to the sweep
// that executes, so phase times, solver work and hit/miss counts land on
// the one that actually did the work. A sweep running alone is always its
// own leader.
func (s *stage[T]) run(ctx context.Context, r *run, key string, out *PairResult, usable func(T) bool, compute func() (T, int, error)) (stageOutcome[T], error) {
	o, st, err := s.flights.Do(ctx, flightID(r.cfg.Cache, key), func() (stageOutcome[T], error) {
		return s.exec(r, key, usable, compute)
	})
	if st.Shared {
		out.Coalesced = true
		metricCoalescedShared.With(s.tier).Inc()
	}
	if st.HandedOff {
		metricCoalesceHandoffs.With(s.tier).Inc()
	}
	return o, err
}

// exec is the body of one stage execution: probe, compute, store.
func (s *stage[T]) exec(r *run, key string, usable func(T) bool, compute func() (T, int, error)) (stageOutcome[T], error) {
	cache := r.cfg.Cache
	if cache != nil {
		// A hit is complete by construction (truncated results are never
		// stored below), so unknown stays 0.
		val, hit := s.get(cache, key)
		hit = hit && (usable == nil || usable(val))
		c := s.counts(&r.counters)
		if hit {
			c.hits.Add(1)
			s.mHits.Inc()
		} else {
			c.misses.Add(1)
			s.mMisses.Inc()
		}
		observeBackendGet(cache, s.tier, hit)
		if hit {
			return stageOutcome[T]{val: val, fromCache: true}, nil
		}
	}
	val, unknown, err := compute()
	if err != nil {
		return stageOutcome[T]{}, err
	}
	// Budget-truncated results are never stored: the cache keys
	// deliberately exclude the solver (so tuning it doesn't orphan
	// entries), which is only sound if every stored result is
	// budget-independent — i.e. complete. A truncated pair recomputes on
	// every sweep until some run affords it; and since CheckKey chains the
	// testgen key, a stored lower-bound cell would shadow the complete one
	// a full-budget rerun generates.
	if cache != nil && unknown == 0 {
		// Writes are best-effort, mirroring the read side's degradation
		// contract: a failed store costs incrementality, never the sweep.
		if err := s.put(cache, key, val); err != nil {
			r.counters.writeErrs.Add(1)
			reportPutError(cache, err)
		}
	}
	return stageOutcome[T]{val: val, unknown: unknown}, nil
}

// runPair assembles one pair's result from whichever cache tiers hit,
// computing only the stages that miss: a TESTGEN miss runs the symbolic
// analysis and test generation, and each kernel's CHECK miss runs that
// kernel against the (cached or fresh) tests. It runs entirely on its
// caller's goroutine: the drivers' worker pools are what bound concurrency.
//
// Along the way it records the pair's observability record: per-phase
// wall times, solver counters and intern-table traffic, both on the
// PairResult and in the process-wide obs registry.
func (r *run) runPair(ctx context.Context, a, b *spec.Op) (PairResult, error) {
	start := time.Now()
	out := PairResult{OpA: a.Name, OpB: b.Name, StartMS: msBetween(r.start, start)}
	internHits0, _ := sym.InternStats()

	tgKey := TestgenKey(r.sp.Name(), a.Name, b.Name, r.cfg.Analyzer, r.cfg.Testgen)
	tg, err := testgenStage.run(ctx, r, tgKey, &out, func(tests []kernel.TestCase) bool {
		return pairTests(tests, a.Name, b.Name)
	}, func() ([]kernel.TestCase, int, error) {
		return PairTests(ctx, r.sp, a, b, r.cfg.Analyzer, r.cfg.Testgen, &out)
	})
	if err != nil {
		return out, fmt.Errorf("sweep %s: %w", out.Pair(), err)
	}
	out.Tests = len(tg.val)
	out.Unknown = tg.unknown

	out.Cached = tg.fromCache
	for _, ks := range r.cfg.Kernels {
		ck, err := checkStage.run(ctx, r, CheckKey(tgKey, ks.Name), &out, nil, func() (KernelCell, int, error) {
			cell, err := runCheck(ctx, ks, tg.val, &out)
			return cell, tg.unknown, err
		})
		if err != nil {
			return out, fmt.Errorf("sweep %s on %s: %w", out.Pair(), ks.Name, err)
		}
		if !ck.fromCache {
			out.Cached = false
		}
		out.Cells = append(out.Cells, ck.val)
	}
	out.ElapsedMS = msSince(start)
	internHits1, _ := sym.InternStats()
	out.Solver.InternHits = int64(internHits1 - internHits0)
	observePair(&out)
	return out, nil
}

// pairTests reports whether tests can be the pair (a, b)'s: every test
// calls a then b, and kernel.Admit accepts it. The TESTGEN tier serves
// whatever entry carries the right version and key — a disk or a cache
// peer wrote it — so a hit that fails this is recomputed, not replayed. It
// allocates nothing: a warm sweep asks it of every pair.
func pairTests(tests []kernel.TestCase, a, b string) bool {
	for i := range tests {
		tc := &tests[i]
		if tc.Calls[0].Op != a || tc.Calls[1].Op != b || kernel.Admit(tc) != nil {
			return false
		}
	}
	return true
}

// PairTests is the pipeline's one ANALYZE → TESTGEN sequence: it analyses
// the pair (a, b) of sp and generates its concrete tests, returning them
// with the number of budget-truncated paths behind them (nonzero means
// the test set is a lower bound). Each phase runs on a fresh solver wired
// to ctx, replacing any in the options, so cancellation lands inside the
// searches and nothing carries over from another pair. Phase times and
// solver work are recorded on out.
func PairTests(ctx context.Context, sp spec.Spec, a, b *spec.Op, aOpt analyzer.Options, gOpt testgen.Options, out *PairResult) ([]kernel.TestCase, int, error) {
	stop := func() bool { return ctx.Err() != nil }
	aOpt.Solver, gOpt.Solver = &sym.Solver{Stop: stop}, &sym.Solver{Stop: stop}
	phaseStart := time.Now()
	pr, err := analyzer.AnalyzePairCtx(ctx, sp, a, b, aOpt)
	out.Phases.AnalyzeMS = msSince(phaseStart)
	if err != nil {
		return nil, 0, err
	}
	phaseStart = time.Now()
	tests, truncated := testgen.GenerateChecked(sp, pr, gOpt)
	out.Phases.TestgenMS = msSince(phaseStart)
	if err := ctx.Err(); err != nil {
		// A cancelled generation pass is truncated, not short: drop it
		// before its lower-bound test set can reach the cache or a cell.
		return nil, 0, err
	}
	for _, st := range []sym.SolverStats{aOpt.Solver.Stats(), gOpt.Solver.Stats()} {
		out.Solver.SatCalls += st.SatCalls
		out.Solver.MemoHits += st.MemoHits
		out.Solver.BudgetHits += st.BudgetHits
		out.Phases.SolverMS += float64(st.SearchTime) / float64(time.Millisecond)
	}
	return tests, pr.Unknown() + truncated, nil
}

// runCheck computes one kernel's CHECK stage: the mtrace replay of tests
// on one long-lived ks kernel (kernel.Replayer), recording phase time and
// replay shape on out. A pair without tests constructs no kernel. On
// cancellation the counts so far come back with the context's error, and
// callers must not treat them as a cell.
func runCheck(ctx context.Context, ks KernelSpec, tests []kernel.TestCase, out *PairResult) (KernelCell, error) {
	cell := KernelCell{Kernel: ks.Name}
	if len(tests) == 0 {
		return cell, ctx.Err()
	}
	phaseStart := time.Now()
	groups, err := kernel.NewReplayer(ks.New).CheckTests(ctx, tests, func(_ int, res kernel.CheckResult) {
		cell.Total++
		if !res.ConflictFree {
			cell.Conflicts++
		}
	})
	out.Phases.CheckMS += msSince(phaseStart)
	out.CheckGroups = groups
	return cell, err
}

// Pairs enumerates the unordered pairs of ops in the orientation the whole
// pipeline depends on — earlier op first, matching the original sequential
// evaluation loop — so cache keys and matrix cells agree across every path
// that fans out over pairs.
func Pairs(ops []*spec.Op) [][2]*spec.Op { return pairsOf(ops) }

// pairsOf is that enumeration for ops in any form; a fleet's work list
// (FleetSweepSpec.PairNames) walks the op names through it.
func pairsOf[T any](ops []T) [][2]T {
	out := make([][2]T, 0, len(ops)*(len(ops)+1)/2)
	for i, a := range ops {
		for _, b := range ops[:i+1] {
			out = append(out, [2]T{b, a})
		}
	}
	return out
}

// CheckTestsCtx runs every test on a kernel from the constructor and returns
// the Figure 6 cell counts (tests run, tests not conflict-free) — one CHECK
// stage outside a sweep.
func CheckTestsCtx(ctx context.Context, fresh func() kernel.Kernel, tests []kernel.TestCase) (total, conflicts int, err error) {
	var shape PairResult // the stage's timing record, which this caller drops
	cell, err := runCheck(ctx, KernelSpec{New: fresh}, tests, &shape)
	return cell.Total, cell.Conflicts, err
}

func msSince(t time.Time) float64 {
	return float64(time.Since(t)) / float64(time.Millisecond)
}

func msBetween(a, b time.Time) float64 {
	return float64(b.Sub(a)) / float64(time.Millisecond)
}
