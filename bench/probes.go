package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/commuter"
	"repro/internal/analyzer"
	"repro/internal/api"
	"repro/internal/flight"
	"repro/internal/kernel"
	"repro/internal/mtrace"
	"repro/internal/spec"
	"repro/internal/sweep"
	"repro/internal/sym"
	"repro/internal/symx"
	"repro/internal/testgen"
)

// The probes measure one layer each, through the layer's exported
// functions, on corpora that do not depend on the workload or the seed:
// the pairs, paths and tests of every registered spec. Each probe feeds the
// next the way the pipeline does (analyses → tests → cells → cache
// entries), so no layer is measured on made-up input, and the cells the
// kernel probe counts are checked against expected.json like any sweep.

type pairCorpus struct {
	a, b     *spec.Op
	analysis analyzer.PairResult
	tests    []kernel.TestCase
	cells    []sweep.KernelCell // one per implementation, in check order
}

func (p *pairCorpus) name() string { return p.a.Name + "/" + p.b.Name }

type specCorpus struct {
	sp    spec.Spec
	pairs []*pairCorpus
}

type prober struct {
	ctx    context.Context
	e      *env
	log    io.Writer
	values map[string]float64
	failed int
	specs  []*specCorpus
	// posix is the main spec's engine configuration at one worker, j1 the
	// cold sweep the sweep probe ran with it, and warmDir the dir backend
	// the cache probe filled with the main spec's entries.
	posix   sweep.Config
	j1      *sweep.Result
	warmDir sweep.Backend
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Millisecond) }
func usSince(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Microsecond) }
func nsSince(t time.Time) float64 { return float64(time.Since(t)) }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// runProbes runs every probe and returns the per-layer values and the
// number of corpus results that differ from expected.json.
func runProbes(ctx context.Context, e *env, log io.Writer) (map[string]float64, int, error) {
	p := &prober{ctx: ctx, e: e, log: log, values: map[string]float64{}}
	for _, step := range []struct {
		name string
		run  func() error
	}{
		{"analyzer", p.analyze},
		{"sym", p.solverCorpus},
		{"symx", p.singleOps},
		{"testgen", p.testgen},
		{"kernel", p.kernels},
		{"mtrace", p.mtrace},
		{"sweep", p.sweepEngine},
		{"cache", p.caches},
		{"fleet", p.fleet},
		{"flight", p.flight},
		{"api", p.apiCodec},
		{"serve", p.serve},
	} {
		_, end := e.tr.lane(0).span("probe."+step.name, "probe")
		start := time.Now()
		err := step.run()
		end()
		fmt.Fprintf(log, "probe %-9s %8.0f ms\n", step.name, msSince(start))
		if err != nil {
			return nil, 0, fmt.Errorf("probe %s: %w", step.name, err)
		}
	}
	return p.values, p.failed, nil
}

// analyze runs ANALYZE over every pair of every spec with one caller-owned
// solver, whose counters are the sym.* metrics of the pipeline's own use.
func (p *prober) analyze() error {
	solver := &sym.Solver{}
	hits0, misses0 := sym.InternStats()
	var paths, commutative, unknown, maxPair float64
	for _, name := range allSpecs {
		sp, err := spec.Lookup(name)
		if err != nil {
			return err
		}
		sc := &specCorpus{sp: sp}
		start := time.Now()
		for _, ops := range sweep.Pairs(sp.Ops()) {
			pairStart := time.Now()
			pr, err := analyzer.AnalyzePairCtx(p.ctx, sp, ops[0], ops[1], analyzer.Options{Solver: solver})
			if err != nil {
				return err
			}
			maxPair = max(maxPair, msSince(pairStart))
			paths += float64(len(pr.Paths))
			commutative += float64(len(pr.CommutativePaths()))
			unknown += float64(pr.Unknown())
			sc.pairs = append(sc.pairs, &pairCorpus{a: ops[0], b: ops[1], analysis: pr})
		}
		p.values["analyzer.ms."+name] = msSince(start)
		p.specs = append(p.specs, sc)
	}
	hits1, misses1 := sym.InternStats()
	st := solver.Stats()
	p.values["analyzer.paths"] = paths
	p.values["analyzer.commutative_paths"] = commutative
	p.values["analyzer.unknown_paths"] = unknown
	p.values["analyzer.max_pair_ms"] = maxPair
	p.values["sym.sat_calls"] = float64(st.SatCalls)
	p.values["sym.budget_hits"] = float64(st.BudgetHits)
	p.values["sym.search_ms"] = float64(st.SearchTime) / float64(time.Millisecond)
	p.values["sym.intern_hit_share"] = ratio(float64(hits1-hits0), float64(hits1-hits0+misses1-misses0))
	return nil
}

// coneKey identifies the search a SatAssuming(pc, extra) query comes down
// to: the question and its cone of influence, the conjuncts of pc that
// transitively share variables with it. Interned expressions make pointer
// equality structural equality, so equal keys mean the identical search.
//
// conjVars holds sym.Vars of each conjunct, which a path's queries share.
func coneKey(pcConjs []*sym.Expr, conjVars [][]*sym.Expr, extra *sym.Expr) string {
	inCone := map[*sym.Expr]bool{}
	for _, v := range sym.Vars(extra) {
		inCone[v] = true
	}
	used := make([]bool, len(pcConjs))
	for changed := true; changed; {
		changed = false
		for i, vars := range conjVars {
			if used[i] || !slices.ContainsFunc(vars, func(v *sym.Expr) bool { return inCone[v] }) {
				continue
			}
			used[i], changed = true, true
			for _, v := range vars {
				inCone[v] = true
			}
		}
	}
	key := fmt.Sprintf("%p", extra)
	for i, c := range pcConjs {
		if used[i] {
			key += fmt.Sprintf(" %p", c)
		}
	}
	return key
}

// solverCorpus replays, on a fresh solver, the questions ANALYZE asks of
// every path: is PC∧Eq (CommuteCond) satisfiable, and is PC∧¬c for each
// conjunct c of Eq, which is how it decides PC∧¬Eq — posed whole, that
// query's cone of influence is the entire path and one search can take
// minutes. A query is a duplicate when an earlier query of the same pair
// came down to the same search (coneKey): the share of searches a per-pair
// incremental encoding, or a per-pair memo, would not run again.
func (p *prober) solverCorpus() error {
	solver := &sym.Solver{}
	var queries, dups float64
	var solve time.Duration
	for _, sc := range p.specs {
		for _, pc := range sc.pairs {
			seen := map[string]bool{}
			for _, path := range pc.analysis.Paths {
				pcConjs := sym.Conjuncts(path.PC)
				conjVars := make([][]*sym.Expr, len(pcConjs))
				for i, c := range pcConjs {
					conjVars[i] = sym.Vars(c)
				}
				extras := []*sym.Expr{path.Eq}
				for _, c := range sym.Conjuncts(path.Eq) {
					extras = append(extras, sym.Not(c))
				}
				for _, extra := range extras {
					key := coneKey(pcConjs, conjVars, extra)
					queries++
					if seen[key] {
						dups++
					}
					seen[key] = true
					start := time.Now()
					solver.SatAssumingConjs(pcConjs, extra)
					solve += time.Since(start)
				}
			}
		}
	}
	p.values["sym.corpus_queries"] = queries
	p.values["sym.corpus_dup_share"] = ratio(dups, queries)
	p.values["sym.corpus_solve_ms"] = float64(solve) / float64(time.Millisecond)
	p.values["sym.corpus_sat_calls"] = float64(solver.Stats().SatCalls)
	return nil
}

// singleOps symbolically executes every op alone on a fresh state.
func (p *prober) singleOps() error {
	var paths float64
	start := time.Now()
	for _, sc := range p.specs {
		for _, op := range sc.sp.Ops() {
			got, _, err := symx.RunCtx(p.ctx, func(c *symx.Context) any {
				args := spec.MakeArgs(c, op, "0")
				x := &spec.Exec{C: c, S: sc.sp.NewState(c, spec.Config{})}
				return op.Exec(x, "0", args)
			}, symx.Options{})
			if err != nil {
				return err
			}
			paths += float64(len(got))
		}
	}
	p.values["symx.single_op_ms"] = msSince(start)
	p.values["symx.single_op_paths"] = paths
	return nil
}

// testgen generates the tests of every analysed pair, then drops the
// analyses: nothing later needs them and they are most of the live heap.
func (p *prober) testgen() error {
	solver := &sym.Solver{}
	var tests, commutative float64
	start := time.Now()
	for _, sc := range p.specs {
		for _, pc := range sc.pairs {
			got, truncated := testgen.GenerateChecked(sc.sp, pc.analysis, testgen.Options{Solver: solver})
			if truncated != 0 {
				return fmt.Errorf("%s %s: %d paths truncated", sc.sp.Name(), pc.name(), truncated)
			}
			commutative += float64(len(pc.analysis.CommutativePaths()))
			pc.tests, pc.analysis = got, analyzer.PairResult{}
			tests += float64(len(got))
		}
	}
	p.values["testgen.ms"] = msSince(start)
	p.values["testgen.tests"] = tests
	p.values["testgen.tests_per_path"] = ratio(tests, commutative)
	return nil
}

// groupBySetup buckets tests by initial state in first-appearance order,
// the unit Replayer.CheckGroup takes.
func groupBySetup(tests []kernel.TestCase) [][]kernel.TestCase {
	var groups [][]kernel.TestCase
	index := map[string]int{}
	for _, tc := range tests {
		id := tc.SetupID
		if id == "" {
			id = tc.Setup.Fingerprint()
		}
		gi, ok := index[id]
		if !ok {
			gi = len(groups)
			index[id] = gi
			groups = append(groups, nil)
		}
		groups[gi] = append(groups[gi], tc)
	}
	return groups
}

// kernels replays every spec's tests on each of its implementations: once
// through a single long-lived Replayer per implementation, pair by pair so
// the cells can be checked, and once the way the sweep engine does, through
// sweep.CheckTestsCtx per pair.
func (p *prober) kernels() error {
	const freshRounds = 50
	var groups, tests, replayAll, replayPerPair float64
	for _, sc := range p.specs {
		for _, impl := range sc.sp.Impls() {
			start := time.Now()
			for range freshRounds {
				kernel.NewReplayer(impl.New)
			}
			p.values["kernel.fresh_us."+impl.Name] = usSince(start) / freshRounds

			rep := kernel.NewReplayer(impl.New)
			var implGroups, implTests float64
			var busy time.Duration
			for _, pc := range sc.pairs {
				c := sweep.KernelCell{Kernel: impl.Name}
				for _, g := range groupBySetup(pc.tests) {
					start := time.Now()
					err := rep.CheckGroup(g[0].Setup, g, func(r kernel.CheckResult) bool {
						c.Total++
						if !r.ConflictFree {
							c.Conflicts++
						}
						return true
					})
					busy += time.Since(start)
					if err != nil {
						return err
					}
					implGroups++
				}
				implTests += float64(c.Total)
				pc.cells = append(pc.cells, c)
				if exp := p.e.expected[sc.sp.Name()][impl.Name][pc.name()]; exp != (cell{c.Total, c.Conflicts}) {
					p.failed++
					fmt.Fprintf(p.log, "FAILED kernel probe: %s %s on %s: got %+v, want %+v\n", sc.sp.Name(), pc.name(), impl.Name, c, exp)
				}
			}
			p.values["kernel.group_us."+impl.Name] = ratio(float64(busy)/float64(time.Microsecond), implGroups)
			p.values["kernel.test_us."+impl.Name] = ratio(float64(busy)/float64(time.Microsecond), implTests)
			groups += implGroups
			tests += implTests
			replayAll += float64(busy) / float64(time.Millisecond)

			start = time.Now()
			for _, pc := range sc.pairs {
				if _, _, err := sweep.CheckTestsCtx(p.ctx, impl.New, pc.tests); err != nil {
					return err
				}
			}
			replayPerPair += msSince(start)
		}
	}
	p.values["kernel.groups"] = groups
	p.values["kernel.tests"] = tests
	p.values["kernel.replay_all_ms"] = replayAll
	p.values["kernel.replay_per_pair_ms"] = replayPerPair
	return nil
}

// mtrace times recorded accesses from two cores, and the snapshot/reset
// cycle a replay pays per test.
func (p *prober) mtrace() error {
	const (
		cells    = 64
		accesses = 2_000_000
		resets   = 20_000
		dirty    = 16 // cells written per reset cycle
	)
	mem := mtrace.NewMemory()
	cs := make([]*mtrace.Cell, cells)
	for i := range cs {
		cs[i] = mem.NewCellf(0, "probe%d", i)
	}
	mem.Start()
	start := time.Now()
	for i := range accesses {
		c := cs[i%cells]
		if i&2 == 0 {
			c.Load(i & 1)
		} else {
			c.Store(i&1, int64(i))
		}
	}
	p.values["mtrace.access_ns"] = nsSince(start) / accesses
	mem.Stop()

	mem.Snapshot()
	start = time.Now()
	for i := range resets {
		for _, c := range cs[:dirty] {
			c.Store(0, int64(i))
		}
		mem.Reset()
	}
	p.values["mtrace.snapshot_reset_us"] = usSince(start) / resets
	return nil
}

// sweepEngine runs the cold posix sweep through sweep.RunContext at one and
// at two workers. What the one-worker wall holds beyond the phases the
// engine reports is the engine's own overhead.
func (p *prober) sweepEngine() error {
	sp, err := spec.Lookup(p.e.u.spec)
	if err != nil {
		return err
	}
	p.posix = sweep.Config{Spec: sp, Ops: sp.Ops(), Workers: 1}
	for _, impl := range sp.Impls() {
		p.posix.Kernels = append(p.posix.Kernels, sweep.KernelSpec{Name: impl.Name, New: impl.New})
	}
	if p.j1, err = sweep.RunContext(p.ctx, p.posix); err != nil {
		return err
	}
	j2cfg := p.posix
	j2cfg.Workers = 2
	j2, err := sweep.RunContext(p.ctx, j2cfg)
	if err != nil {
		return err
	}
	var ph sweep.PhaseTimes
	for _, pr := range p.j1.Pairs {
		ph.AnalyzeMS += pr.Phases.AnalyzeMS
		ph.TestgenMS += pr.Phases.TestgenMS
		ph.CheckMS += pr.Phases.CheckMS
		ph.SolverMS += pr.Phases.SolverMS
	}
	wall := float64(p.j1.Elapsed) / float64(time.Millisecond)
	p.values["sweep.wall_j1_ms"] = wall
	p.values["sweep.self_ms"] = wall - ph.AnalyzeMS - ph.TestgenMS - ph.CheckMS
	p.values["sweep.analyze_phase_ms"] = ph.AnalyzeMS
	p.values["sweep.testgen_phase_ms"] = ph.TestgenMS
	p.values["sweep.check_phase_ms"] = ph.CheckMS
	p.values["sweep.solver_phase_ms"] = ph.SolverMS
	p.values["sweep.parallel_efficiency"] = ratio(float64(p.j1.Elapsed), 2*float64(j2.Elapsed))
	return nil
}

// mainCorpus is the corpus of the main spec.
func (p *prober) mainCorpus() *specCorpus {
	for _, sc := range p.specs {
		if sc.sp.Name() == p.e.u.spec {
			return sc
		}
	}
	return nil
}

// caches stores the main spec's tests and cells in each backend, reads
// them back, and sweeps warm from it.
func (p *prober) caches() error {
	sc := p.mainCorpus()
	keys := make([]string, len(sc.pairs))
	var bytes, cellsN float64
	encodeStart := time.Now()
	entries := make([][]byte, len(sc.pairs))
	for i, pc := range sc.pairs {
		keys[i] = sweep.TestgenKey(sc.sp.Name(), pc.a.Name, pc.b.Name, analyzer.Options{}, testgen.Options{})
		data, err := sweep.EncodeTestsEntry(keys[i], pc.tests)
		if err != nil {
			return err
		}
		entries[i] = data
		bytes += float64(len(data))
		cellsN += float64(len(pc.cells))
	}
	n := float64(len(sc.pairs))
	p.values["cache.entry_encode_us"] = usSince(encodeStart) / n
	decodeStart := time.Now()
	for i, data := range entries {
		if _, ok := sweep.DecodeTestsEntry(keys[i], data); !ok {
			return fmt.Errorf("tests entry of %s does not decode", sc.pairs[i].name())
		}
	}
	p.values["cache.entry_decode_us"] = usSince(decodeStart) / n
	p.values["cache.tests_entry_bytes"] = bytes / n

	peer, err := startServer(commuter.ServeWithBackend(sweep.NewMemBackend(0)))
	if err != nil {
		return err
	}
	defer peer.stop()
	open := map[string]func() (sweep.Backend, error){
		"dir": func() (sweep.Backend, error) { return p.openDir("probe-dir-") },
		"mem": func() (sweep.Backend, error) { return sweep.NewMemBackend(0), nil },
		"http": func() (sweep.Backend, error) {
			return sweep.NewHTTPBackend(peer.url)
		},
		"tiered": func() (sweep.Backend, error) {
			slow, err := p.openDir("probe-tiered-")
			if err != nil {
				return nil, err
			}
			return sweep.Tiered(sweep.NewMemBackend(0), slow), nil
		},
	}
	for _, kind := range cacheKinds {
		b, err := open[kind]()
		if err != nil {
			return err
		}
		start := time.Now()
		for i, pc := range sc.pairs {
			if err := b.PutTests(keys[i], pc.tests); err != nil {
				return err
			}
		}
		p.values["cache."+kind+".put_tests_us"] = usSince(start) / n
		start = time.Now()
		for i, pc := range sc.pairs {
			for _, c := range pc.cells {
				if err := b.PutCell(sweep.CheckKey(keys[i], c.Kernel), c); err != nil {
					return err
				}
			}
		}
		p.values["cache."+kind+".put_cell_us"] = usSince(start) / cellsN
		start = time.Now()
		for i, pc := range sc.pairs {
			if _, ok := b.GetTests(keys[i]); !ok {
				return fmt.Errorf("%s backend lost the tests of %s", kind, pc.name())
			}
		}
		p.values["cache."+kind+".get_tests_us"] = usSince(start) / n
		start = time.Now()
		for i, pc := range sc.pairs {
			for _, c := range pc.cells {
				if _, ok := b.GetCell(sweep.CheckKey(keys[i], c.Kernel)); !ok {
					return fmt.Errorf("%s backend lost the %s cell of %s", kind, c.Kernel, pc.name())
				}
			}
		}
		p.values["cache."+kind+".get_cell_us"] = usSince(start) / cellsN

		cfg := p.posix
		cfg.Cache = b
		res, err := sweep.RunContext(p.ctx, cfg)
		if err != nil {
			return err
		}
		if res.Cache.Misses() != 0 {
			return fmt.Errorf("warm sweep from the %s backend missed: %+v", kind, res.Cache)
		}
		p.values["cache."+kind+".warm_sweep_ms"] = float64(res.Elapsed) / float64(time.Millisecond)
		if kind == "dir" {
			p.warmDir = b
		}
	}
	return nil
}

func (p *prober) openDir(prefix string) (*sweep.Cache, error) {
	dir, err := os.MkdirTemp(p.e.tmp, prefix)
	if err != nil {
		return nil, err
	}
	return sweep.OpenCache(dir)
}

// countingFleet counts the claims a member makes.
type countingFleet struct {
	sweep.FleetClient
	claims atomic.Int64
}

func (c *countingFleet) Claim(ctx context.Context, req sweep.FleetClaimRequest) (sweep.FleetClaimResponse, error) {
	c.claims.Add(1)
	return c.FleetClient.Claim(ctx, req)
}

// fleet times the lease table directly and through the coordinator's
// routes, then sweeps the fleet op set once with two members and once in
// one process at two workers.
func (p *prober) fleet() error {
	sp := p.posix.Spec
	cfg := p.posix
	var err error
	if cfg.Ops, err = spec.OpSet(sp, p.e.u.fleetSet); err != nil {
		return err
	}
	fspec := sweep.FleetSpec(sp, cfg)
	pairs := fspec.PairNames()
	claim := sweep.FleetClaimRequest{Version: sweep.FleetAPIVersion, Worker: "probe", Max: 1, Sweep: fspec}

	// The table alone, on a clock that never moves: one lease per claim.
	const tables = 200
	var claimT, completeT time.Duration
	epoch := time.Unix(0, 0)
	for range tables {
		t := sweep.NewFleetTable(fspec.Key(), pairs, 0, func() time.Time { return epoch })
		leases := make([]sweep.FleetLease, 0, len(pairs))
		start := time.Now()
		for range pairs {
			leases = append(leases, t.Claim(claim).Leases...)
		}
		claimT += time.Since(start)
		if len(leases) != len(pairs) {
			return fmt.Errorf("lease table granted %d of %d pairs", len(leases), len(pairs))
		}
		start = time.Now()
		for _, l := range leases {
			a, b, _ := strings.Cut(l.Pair, "/")
			t.Complete("probe", []sweep.FleetPairDone{{Lease: l.ID, Pair: sweep.PairResult{OpA: a, OpB: b}}})
		}
		completeT += time.Since(start)
	}
	ops := float64(tables * len(pairs))
	p.values["fleet.claim_us"] = float64(claimT) / float64(time.Microsecond) / ops
	p.values["fleet.complete_us"] = float64(completeT) / float64(time.Microsecond) / ops

	// The same claim through the handler. Max 0 is a heartbeat, so the
	// table never runs dry however many are sent.
	srv, err := startServer()
	if err != nil {
		return err
	}
	defer srv.stop()
	fc, err := sweep.NewHTTPFleetClient(srv.url)
	if err != nil {
		return err
	}
	const rpcs = 500
	heartbeat := claim
	heartbeat.Max = 0
	start := time.Now()
	for range rpcs {
		if _, err := fc.Claim(p.ctx, heartbeat); err != nil {
			return err
		}
	}
	p.values["fleet.rpc_claim_us"] = usSince(start) / rpcs

	// One two-member sweep on a fresh coordinator, claims counted.
	coord, err := startServer()
	if err != nil {
		return err
	}
	defer coord.stop()
	var (
		wg      sync.WaitGroup
		members [2]countingFleet
		errs    [2]error
	)
	start = time.Now()
	for m := range members {
		inner, err := sweep.NewHTTPFleetClient(coord.url)
		if err != nil {
			return err
		}
		members[m].FleetClient = inner
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[m] = sweep.RunFleet(p.ctx, cfg, &members[m])
		}()
	}
	wg.Wait()
	fleetWall := time.Since(start)
	if err := errors.Join(errs[:]...); err != nil {
		return err
	}
	p.values["fleet.claims_per_sweep"] = float64(members[0].claims.Load() + members[1].claims.Load())

	cfg.Workers = 2
	single, err := sweep.RunContext(p.ctx, cfg)
	if err != nil {
		return err
	}
	p.values["fleet.slowdown_x"] = ratio(float64(fleetWall), float64(single.Elapsed))
	return nil
}

// flight times the uncontended leader path of the single-flight group.
func (p *prober) flight() error {
	const calls = 200_000
	var g flight.Group[int]
	start := time.Now()
	for i := range calls {
		if _, _, err := g.Do(p.ctx, "probe", func() (int, error) { return i, nil }); err != nil {
			return err
		}
	}
	p.values["flight.do_ns"] = nsSince(start) / calls
	return nil
}

// apiCodec times the wire codec on the frames of the sweep probe's result:
// every pair as an update frame, and the terminal result frame.
func (p *prober) apiCodec() error {
	var (
		frames  [][]byte
		bytes   float64
		updates = float64(len(p.j1.Pairs))
	)
	start := time.Now()
	for i := range p.j1.Pairs {
		pr := &p.j1.Pairs[i]
		data, err := json.Marshal(api.Frame{
			Type: api.FrameUpdate, Pair: pr,
			Progress: api.ProgressFromEvent(sweep.Event{Pair: pr.Pair(), Done: i + 1, Total: len(p.j1.Pairs), Tests: pr.Tests, PairMS: pr.ElapsedMS}),
		})
		if err != nil {
			return err
		}
		frames = append(frames, data)
		bytes += float64(len(data))
	}
	p.values["api.encode_update_us"] = usSince(start) / updates
	p.values["api.update_bytes"] = bytes / updates
	start = time.Now()
	for _, data := range frames {
		var fr api.Frame
		if err := json.Unmarshal(data, &fr); err != nil {
			return err
		}
	}
	p.values["api.decode_update_us"] = usSince(start) / updates

	const rounds = 50
	var data []byte
	start = time.Now()
	for range rounds {
		var err error
		if data, err = json.Marshal(api.Frame{Type: api.FrameResult, Result: api.ResultFromSweep(p.j1, true)}); err != nil {
			return err
		}
	}
	p.values["api.encode_result_us"] = usSince(start) / rounds
	p.values["api.result_bytes"] = float64(len(data))
	start = time.Now()
	for range rounds {
		var fr api.Frame
		if err := json.Unmarshal(data, &fr); err != nil {
			return err
		}
	}
	p.values["api.decode_result_us"] = usSince(start) / rounds
	return nil
}

// serve compares a warm sweep through Dial with the same sweep through
// Local() on the same backend, and times the two unversioned routes.
func (p *prober) serve() error {
	srv, err := startServer(commuter.ServeWithBackend(p.warmDir))
	if err != nil {
		return err
	}
	defer srv.stop()
	remote, err := commuter.Dial(srv.url)
	if err != nil {
		return err
	}
	defer remote.Close()
	opts := []commuter.Option{commuter.WithSpec(p.e.u.spec), commuter.WithOpSet("all"), commuter.WithWorkers(1)}
	const rounds = 9
	var overhead, first []float64
	local := append(opts[:len(opts):len(opts)], commuter.WithCacheBackend(p.warmDir))
	for range rounds {
		start := time.Now()
		_, firstUpdate, err := sweepOnce(p.ctx, remote, lane{}, opts...)
		if err != nil {
			return err
		}
		viaDial := msSince(start)
		first = append(first, float64(firstUpdate)/float64(time.Millisecond))
		start = time.Now()
		if _, _, err := sweepOnce(p.ctx, commuter.Local(), lane{}, local...); err != nil {
			return err
		}
		overhead = append(overhead, viaDial-msSince(start))
	}
	p.values["serve.overhead_ms"] = median(overhead)
	p.values["serve.first_update_ms"] = median(first)

	for _, route := range []struct {
		metric, path string
		rounds       int
	}{{"serve.healthz_us", api.PathHealth, 300}, {"serve.metrics_us", api.PathMetrics, 100}} {
		start := time.Now()
		for range route.rounds {
			resp, err := http.Get(srv.url + route.path)
			if err != nil {
				return err
			}
			_, err = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if err != nil {
				return err
			}
			if resp.StatusCode != http.StatusOK {
				return fmt.Errorf("GET %s: %s", route.path, resp.Status)
			}
		}
		p.values[route.metric] = usSince(start) / float64(route.rounds)
	}
	return nil
}
