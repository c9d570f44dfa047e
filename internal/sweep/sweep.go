// Package sweep is the parallel orchestration engine for the COMMUTER
// pipeline. It fans the per-pair ANALYZE → TESTGEN → CHECK work across a
// configurable worker pool: the mtrace tracer and the solver are
// single-threaded, so isolation is per worker (each worker owns one
// sym.Solver, and one kernel.Replayer per kernel, whose kernel has its own
// mtrace.Memory, and runs its pairs on them one at a time) and parallelism
// is across the 171 unordered pairs of the modeled operations — the pair
// pool is the engine's only scheduler.
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
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/pins"
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
	// selects the POSIX spec, model.Spec. The spec's name is folded
	// into both cache tiers so different specs can share one cache
	// directory without ever colliding.
	Spec spec.Spec
	// Ops is the operation universe; the sweep covers every unordered
	// pair, oriented like the sequential evaluation path (earlier op
	// first).
	Ops []*spec.Op
	// Kernels are the implementations to check each generated test on.
	Kernels []KernelSpec
	// LowestFD models POSIX's lowest-FD allocation rule instead of the
	// O_ANYFD specification nondeterminism (§4 of the paper).
	LowestFD bool
	// MaxTestsPerPath caps the isomorphism classes TESTGEN enumerates per
	// commutative path; 0 means testgen.DefaultMaxTestsPerPath.
	MaxTestsPerPath int
	// Workers sizes the pool; <= 0 means runtime.NumCPU().
	Workers int
	// Cache, when non-nil, serves and stores per-pair results. Any
	// Backend works: the on-disk *Cache (OpenCache), an in-memory LRU
	// (NewMemBackend), a peer server (NewHTTPBackend), a Tiered stack,
	// or whatever OpenBackend resolves from a -cache URL.
	Cache Backend
	// Progress, when non-nil, receives one Event per finished pair.
	Progress func(Event)

	// maxPaths caps ANALYZE's joint path exploration; 0 means
	// symx.DefaultMaxPaths. Only this package's tests set it.
	maxPaths int
}

// PhaseOptions is the one translation of cfg's test shape into the ANALYZE
// and TESTGEN options; both leave the solver nil.
func (cfg Config) PhaseOptions() (analyzer.Options, testgen.Options) {
	return analyzer.Options{Config: spec.Config{LowestFD: cfg.LowestFD}, MaxPaths: cfg.maxPaths},
		testgen.Options{MaxTestsPerPath: cfg.MaxTestsPerPath}
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
	// Cached reports that nothing was recomputed for the pair: every cell
	// came from the CHECK tier, and the tests, when they were read at all,
	// from the TESTGEN tier.
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

// SolverCounters aggregates the pair's solver traffic.
type SolverCounters struct {
	// SatCalls counts backtracking searches run for this pair.
	SatCalls int64 `json:"sat_calls,omitempty"`
	// MemoHits counts searches not run because the pair's solver
	// remembered the answer.
	MemoHits int64 `json:"memo_hits,omitempty"`
	// BudgetHits counts searches that exhausted the step budget (each
	// one is an "unknown", not a proof; see PairResult.Unknown).
	BudgetHits int64 `json:"budget_exhaustions,omitempty"`
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
// aOpt and gOpt are cfg's test shape as the two symbolic phases take it;
// their Solver stays nil, since each pair runs on its worker's (see
// worker.generate).
type run struct {
	cfg      Config
	sp       spec.Spec
	aOpt     analyzer.Options
	gOpt     testgen.Options
	workers  int
	start    time.Time
	counters runCounters
}

// newRun resolves cfg's defaults and marks the sweep in flight; the caller
// defers close. The cache's outbound requests carry ctx's request id.
func newRun(ctx context.Context, cfg Config) *run {
	cfg.Cache = boundTo(ctx, cfg.Cache)
	r := &run{cfg: cfg, sp: cfg.Spec, workers: cfg.Workers, start: time.Now()}
	r.aOpt, r.gOpt = cfg.PhaseOptions()
	if r.workers <= 0 {
		r.workers = runtime.NumCPU()
	}
	if r.sp == nil {
		r.sp = model.Spec
	}
	metricSweepsInflight.Inc()
	return r
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
		Pair:    pr.Pair(),
		Done:    done,
		Total:   total,
		Tests:   pr.Tests,
		PairMS:  pr.ElapsedMS,
		Elapsed: time.Since(r.start),
		Result:  pr,
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
// turns the jobs still queued into no-ops. Worker i keeps its engines in
// workers[i] (see worker); they die with the executor, once the driver's
// wait has returned.
type executor struct {
	parent  context.Context
	ctx     context.Context
	cancel  context.CancelCauseFunc
	jobs    chan pairJob
	wg      sync.WaitGroup
	workers []worker
}

// startExecutor starts the pool. queue is how many submitted jobs may wait
// for a worker before submit blocks. The driver submits its jobs and then
// calls wait, exactly once, even when it gives up early.
func (r *run) startExecutor(ctx context.Context, queue int, done func(context.Context, pairJob, PairResult) error) *executor {
	e := &executor{parent: ctx, jobs: make(chan pairJob, queue), workers: make([]worker, r.workers)}
	e.ctx, e.cancel = context.WithCancelCause(ctx)
	for i := range e.workers {
		w := &e.workers[i]
		e.wg.Add(1)
		go func() {
			defer e.wg.Done()
			for j := range e.jobs {
				if e.ctx.Err() != nil {
					continue
				}
				pr, err := r.runPair(e.ctx, j.a, j.b, w)
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

// worker is what one executor goroutine keeps across the pairs it runs,
// and the one owner of their engines: the Solver both symbolic phases run
// on, the Generator TESTGEN runs on (see generate) and a Replayer per
// kernel (see check). Each is built at its stage's first miss, so a warm
// sweep builds nothing, and lives as long as the worker: a pair boundary
// resets it under its own contract (Solver.Forget, the Generator's
// release, the Replayer's per-test reset), and a failed pair retires the
// worker, engines and all, since any error of a pair cancels the executor.
// PairTests and CheckTestsCtx run as one pair on a fresh worker.
// Single-flight never hands an engine to another goroutine: a stage's
// compute closure runs on the goroutine that asked for it.
type worker struct {
	solver *sym.Solver
	gen    *testgen.Generator
	reps   []*kernel.Replayer // reps[i] replays on the run's Kernels[i]
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
	r := newRun(ctx, cfg)
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
		s.count(r, hit)
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
	// every sweep until some run affords it; and since checkKey chains the
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

// count records one lookup of the tier that decided the stage: on the
// run's counters, the process-wide tier counters and the per-backend one.
func (s *stage[T]) count(r *run, hit bool) {
	c := s.counts(&r.counters)
	if hit {
		c.hits.Add(1)
		s.mHits.Inc()
	} else {
		c.misses.Add(1)
		s.mMisses.Inc()
	}
	observeBackendGet(r.cfg.Cache, s.tier, hit)
}

// runPair assembles one pair's result from whichever cache tiers hit,
// computing only the stages that miss. It reads the pair's CHECK cells
// first (probeCells): when every kernel's cell hits and they agree on the
// number of tests, they are the pair, and the TESTGEN tier is never read —
// a warm pair costs K small cell reads, not the decode of its whole test
// corpus. Otherwise a TESTGEN miss runs the symbolic analysis and test
// generation on the calling worker's Solver, and each kernel whose cell
// was not served runs its CHECK stage against the (cached or fresh) tests,
// on the worker's Replayer for that kernel, w.reps[i] for r.cfg.Kernels[i].
// It runs entirely on its caller's goroutine: the drivers' worker pools are
// what bound concurrency.
//
// Along the way it records the pair's observability record: per-phase
// wall times and solver counters, both on the PairResult and in the
// process-wide obs registry.
func (r *run) runPair(ctx context.Context, a, b *spec.Op, w *worker) (PairResult, error) {
	start := time.Now()
	out := PairResult{OpA: a.Name, OpB: b.Name, StartMS: msBetween(r.start, start)}

	pair := pins.Key{Spec: r.sp.Name(), LowestFD: r.aOpt.Config.LowestFD, OpA: a.Name, OpB: b.Name}
	tgKey := testgenKey(pins.Current, pair, r.aOpt, r.gOpt)
	out.Cells = r.probeCells(tgKey, pair)
	if len(out.Cells) > 0 && len(out.Cells) == len(r.cfg.Kernels) && sameTotal(out.Cells) {
		// A stored cell counts one result per test of the tests its key
		// pins, and is complete by construction, so the cells alone are
		// the pair.
		out.Tests = out.Cells[0].Total
		out.Cached = true
		out.ElapsedMS = msSince(start)
		observePair(&out)
		return out, nil
	}

	tg, err := testgenStage.run(ctx, r, tgKey, &out, func(tests []kernel.TestCase) bool {
		return pairTests(tests, r.sp.Name(), a.Name, b.Name)
	}, func() ([]kernel.TestCase, int, error) {
		return w.generate(ctx, r.sp, a, b, r.aOpt, r.gOpt, &out)
	})
	if err != nil {
		return out, fmt.Errorf("sweep %s: %w", out.Pair(), err)
	}
	out.Tests = len(tg.val)
	out.Unknown = tg.unknown

	out.Cached = tg.fromCache
	for i := len(out.Cells); i < len(r.cfg.Kernels); i++ {
		ks := r.cfg.Kernels[i]
		ck, err := checkStage.run(ctx, r, checkKey(pins.Current, tgKey, pair, ks.Name), &out, func(cell KernelCell) bool {
			return cell.Kernel == ks.Name
		}, func() (KernelCell, int, error) {
			cell, err := w.check(ctx, i, ks, tg.val, &out)
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
	observePair(&out)
	return out, nil
}

// probeCells reads the pair's CHECK cells in kernel order, outside any
// flight, and returns the leading run of hits: each is counted as the hit
// that serves its kernel, whatever the pair goes on to read. The first
// miss ends the probe uncounted, since only a miss the CHECK stage takes
// under single-flight decides anything: a concurrent identical sweep may
// store the cell in between, and the stage's own probe then serves it.
func (r *run) probeCells(tgKey string, pair pins.Key) []KernelCell {
	if r.cfg.Cache == nil || len(r.cfg.Kernels) == 0 {
		return nil
	}
	cells := make([]KernelCell, 0, len(r.cfg.Kernels))
	for _, ks := range r.cfg.Kernels {
		cell, hit := checkStage.get(r.cfg.Cache, checkKey(pins.Current, tgKey, pair, ks.Name))
		if !hit || cell.Kernel != ks.Name {
			observeBackendGet(r.cfg.Cache, TierCheck, false)
			break
		}
		checkStage.count(r, true)
		cells = append(cells, cell)
	}
	return cells
}

// sameTotal reports whether every cell ran the same number of tests.
func sameTotal(cells []KernelCell) bool {
	for _, c := range cells[1:] {
		if c.Total != cells[0].Total {
			return false
		}
	}
	return true
}

// pairTests reports whether tests can be the pair (a, b)'s of the spec
// named sp: every test calls a then b, carries sp's setup type, and
// kernel.Admit accepts it. The TESTGEN tier serves
// whatever entry carries the right version and key — a disk or a cache
// peer wrote it — so a hit that fails this is recomputed, not replayed. It
// allocates nothing: a sweep asks it of every TESTGEN hit.
func pairTests(tests []kernel.TestCase, sp, a, b string) bool {
	for i := range tests {
		tc := &tests[i]
		if tc.Calls[0].Op != a || tc.Calls[1].Op != b || kernel.SetupSpec(tc.Setup) != sp || kernel.Admit(tc) != nil {
			return false
		}
	}
	return true
}

// PairTests analyses the pair (a, b) of sp and generates its concrete
// tests, returning them with the number of budget-truncated paths behind
// them (nonzero means the test set is a lower bound) — one TESTGEN stage
// outside a sweep, on a fresh worker, whose solver replaces any in the
// options. Phase times and solver work are recorded on out.
func PairTests(ctx context.Context, sp spec.Spec, a, b *spec.Op, aOpt analyzer.Options, gOpt testgen.Options, out *PairResult) ([]kernel.TestCase, int, error) {
	var w worker
	return w.generate(ctx, sp, a, b, aOpt, gOpt, out)
}

// generate is the pipeline's one ANALYZE → TESTGEN sequence, both phases
// on w's Solver and TESTGEN on w's Generator for sp, each built at its
// first use. At the start the Solver's Stop hook is wired to ctx, so
// cancellation lands inside the searches, and its memory is forgotten, so
// nothing carries over from another pair: the pair's answers and counts
// are a fresh solver's. An error, cancellation included, fails the pair
// and so retires w (see worker). The solver counters and SolverMS recorded
// on out are the pair's share of the solver's.
func (w *worker) generate(ctx context.Context, sp spec.Spec, a, b *spec.Op, aOpt analyzer.Options, gOpt testgen.Options, out *PairResult) ([]kernel.TestCase, int, error) {
	if w.solver == nil {
		w.solver = &sym.Solver{}
	}
	if w.gen == nil {
		w.gen = testgen.NewGenerator(sp)
	}
	s := w.solver
	s.Stop = func() bool { return ctx.Err() != nil }
	s.Forget()
	aOpt.Solver, gOpt.Solver = s, s
	st0 := s.Stats()
	phaseStart := time.Now()
	pr, err := analyzer.AnalyzePairCtx(ctx, sp, a, b, aOpt)
	out.Phases.AnalyzeMS = msSince(phaseStart)
	if err != nil {
		return nil, 0, err
	}
	phaseStart = time.Now()
	tests, truncated := w.gen.Generate(pr, gOpt)
	out.Phases.TestgenMS = msSince(phaseStart)
	if err := ctx.Err(); err != nil {
		// A cancelled generation pass is truncated, not short: drop it
		// before its lower-bound test set can reach the cache or a cell.
		return nil, 0, err
	}
	st := s.Stats()
	out.Solver.SatCalls += st.SatCalls - st0.SatCalls
	out.Solver.MemoHits += st.MemoHits - st0.MemoHits
	out.Solver.BudgetHits += st.BudgetHits - st0.BudgetHits
	out.Phases.SolverMS += float64(st.SearchTime-st0.SearchTime) / float64(time.Millisecond)
	return tests, pr.Unknown() + truncated, nil
}

// check computes one kernel's CHECK stage: the mtrace replay of tests on
// w.reps[i], a long-lived ks kernel (kernel.Replayer) built at its first
// use, recording phase time and replay shape on out. A pair without tests
// constructs no kernel. An error — a kernel's panic, or cancellation, with
// the counts so far, which callers must not treat as a cell — fails the
// pair and so retires w (see worker).
func (w *worker) check(ctx context.Context, i int, ks KernelSpec, tests []kernel.TestCase, out *PairResult) (KernelCell, error) {
	cell := KernelCell{Kernel: ks.Name}
	if len(tests) == 0 {
		return cell, ctx.Err()
	}
	phaseStart := time.Now()
	if i >= len(w.reps) {
		w.reps = append(w.reps, make([]*kernel.Replayer, i+1-len(w.reps))...)
	}
	if w.reps[i] == nil {
		w.reps[i] = kernel.NewReplayer(ks.New)
	}
	groups, err := w.reps[i].CheckTests(ctx, tests, func(_ int, res kernel.CheckResult) {
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
// stage outside a sweep, on a fresh worker.
func CheckTestsCtx(ctx context.Context, fresh func() kernel.Kernel, tests []kernel.TestCase) (total, conflicts int, err error) {
	var (
		shape PairResult // the stage's timing record, which this caller drops
		w     worker
	)
	cell, err := w.check(ctx, 0, KernelSpec{New: fresh}, tests, &shape)
	return cell.Total, cell.Conflicts, err
}

func msSince(t time.Time) float64 {
	return float64(time.Since(t)) / float64(time.Millisecond)
}

func msBetween(a, b time.Time) float64 {
	return float64(b.Sub(a)) / float64(time.Millisecond)
}
