package sweep

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/kernel"
	"repro/internal/kernel/kerneltest"
	"repro/internal/kvspec"
	"repro/internal/model"
	"repro/internal/mtrace"
	"repro/internal/queuespec"
	"repro/internal/spec"
	"repro/internal/symx"
	"repro/internal/vmspec"
)

// traced is one test as a kernel ran it under CHECK: its group's setup,
// its calls, and what the traced run gave — results, verdict, conflicts
// and the ordered access log.
type traced struct {
	setup        kernel.Setup
	calls        [2]kernel.Call
	res          [2]kernel.Result
	conflictFree bool
	conflicts    []mtrace.Conflict
	log          []access
}

// access is one entry of a traced run's access log. A cell is named, not
// compared by identity: two kernels build theirs independently.
type access struct {
	cell  string
	core  int
	write bool
}

// tracingKernel appends every test a Replayer runs on it to *sink. The
// second call is a test's last act inside its traced region, so the
// region's verdict and access log are read right after it.
type tracingKernel struct {
	kernel.Kernel
	sink *[]traced
	cur  traced
}

func (k *tracingKernel) Apply(s kernel.Setup) {
	k.cur.setup = s
	k.Kernel.Apply(s)
}

func (k *tracingKernel) Exec(core int, c kernel.Call) kernel.Result {
	r := k.Kernel.Exec(core, c)
	k.cur.calls[core], k.cur.res[core] = c, r
	if core == 1 {
		mem := k.Memory()
		k.cur.conflictFree, k.cur.conflicts, k.cur.log = mem.ConflictFree(), mem.Conflicts(), nil
		for _, a := range mem.Accesses() {
			k.cur.log = append(k.cur.log, access{a.Cell.Name(), a.Core, a.Write})
		}
		*k.sink = append(*k.sink, k.cur)
	}
	return r
}

// testsRecorder is a cache that serves nothing and keeps the last test
// list stored: runPair hands a pair's tests to nothing else.
type testsRecorder struct{ tests []kernel.TestCase }

func (b *testsRecorder) GetTests(string) ([]kernel.TestCase, bool) { return nil, false }
func (b *testsRecorder) GetCell(string) (*KernelCell, bool)        { return nil, false }
func (b *testsRecorder) PutCell(string, KernelCell) error          { return nil }
func (b *testsRecorder) Ready() error                              { return nil }
func (b *testsRecorder) String() string                            { return "recorder" }
func (b *testsRecorder) PutTests(_ string, tests []kernel.TestCase) error {
	b.tests = tests
	return nil
}

// pairRun is what one runPair of a pair gives: its tests, its solver
// counts, and every kernel's traced tests, in kernel order.
type pairRun struct {
	tests  []kernel.TestCase
	solver SolverCounters
	traces [][]traced
}

// reuseUniverse is one spec under one configuration, as a sweep runs it.
type reuseUniverse struct {
	name     string
	sp       spec.Spec
	lowestFD bool
	findings func() reuseFindings // reusedWorker's, computed once
}

var reuseUniverses = []reuseUniverse{
	{name: "posix", sp: model.Spec},
	{name: "posix-lowestfd", sp: model.Spec, lowestFD: true},
	{name: "vm", sp: vmspec.Spec},
	{name: "kv", sp: kvspec.Spec},
	{name: "queue", sp: queuespec.Spec},
}

// reuseFindings is what the reused-worker oracle found in one universe:
// the first pair whose tests, whose solver counts, or (per Impl) whose
// traced runs differ between the reused worker and a fresh one, "" where
// none does.
type reuseFindings struct {
	err      error
	impls    []string
	tests    string
	solver   string
	replayer []string
	pairs    int
	nTests   int
	beside   int // tests with an open or pipe landing beside their setup's descriptors
}

// reusedWorker runs u's oracle once per test binary and returns its
// findings. The worker's three engines are one lifecycle, so one run
// answers for all three; TestReusedWorkerIsInvisible,
// TestLongLivedSolverIsInvisible and TestLongLivedReplayerIsInvisible each
// read their engine's part of it.
//
// One worker runs every pair of u through runPair in Pairs order, in
// reverse and in a seeded shuffle, and each pair is compared with what it
// gives on a fresh worker. Whatever a pair leaves in an engine that a
// fresh one would not have — a remembered answer, a mined value, a stale
// map entry, an sv6 inode built on demand — shows in some later pair of
// some order.
func reusedWorker(u reuseUniverse) reuseFindings { return u.findings() }

func init() {
	for i := range reuseUniverses {
		u := &reuseUniverses[i]
		u.findings = sync.OnceValue(func() reuseFindings { return findReuse(*u) })
	}
}

func findReuse(u reuseUniverse) (f reuseFindings) {
	ctx := context.Background()
	impls := u.sp.Impls()
	sinks := make([][]traced, len(impls))
	kernels := make([]KernelSpec, len(impls))
	for i, im := range impls {
		f.impls = append(f.impls, im.Name)
		logged := kerneltest.Logged(im.New, func(*mtrace.Memory) {})
		kernels[i] = KernelSpec{Name: im.Name, New: func() kernel.Kernel {
			return &tracingKernel{Kernel: logged(), sink: &sinks[i]}
		}}
	}
	f.replayer = make([]string, len(impls))
	cache := &testsRecorder{}
	r := newRun(ctx, Config{Spec: u.sp, Ops: u.sp.Ops(), Kernels: kernels, LowestFD: u.lowestFD, Workers: 1, Cache: cache})
	defer r.close()
	runOn := func(w *worker, p [2]*spec.Op) (pairRun, error) {
		*cache = testsRecorder{}
		clear(sinks)
		pr, err := r.runPair(ctx, p[0], p[1], w)
		if err == nil && pr.Unknown != 0 {
			err = fmt.Errorf("%s: %d unknown paths, whose tests are never stored", pr.Pair(), pr.Unknown)
		}
		return pairRun{cache.tests, pr.Solver, slices.Clone(sinks)}, err
	}

	pairs := Pairs(u.sp.Ops())
	f.pairs = len(pairs)
	want := make([]pairRun, len(pairs))
	for i, p := range pairs {
		if want[i], f.err = runOn(&worker{}, p); f.err != nil {
			return f
		}
		f.nTests += len(want[i].tests)
		for _, tr := range want[i].traces[0] {
			if fdBesideSetup(tr) {
				f.beside++
			}
		}
	}
	first := func(found *string, format string, args ...any) {
		if *found == "" {
			*found = fmt.Sprintf(format, args...)
		}
	}
	fwd, rev := make([]int, len(pairs)), make([]int, len(pairs))
	for i := range fwd {
		fwd[i], rev[i] = i, len(pairs)-1-i
	}
	var long worker
	for oi, order := range [][]int{fwd, rev, rand.New(rand.NewSource(1)).Perm(len(pairs))} {
		for _, i := range order {
			var got pairRun
			if got, f.err = runOn(&long, pairs[i]); f.err != nil {
				return f
			}
			w := want[i]
			pair := "order " + strconv.Itoa(oi) + ", " + pairs[i][0].Name + "/" + pairs[i][1].Name
			if got.solver != w.solver {
				first(&f.solver, "%s: the reused worker's solver counted %+v, a fresh one's %+v", pair, got.solver, w.solver)
			}
			if !reflect.DeepEqual(got.tests, w.tests) {
				first(&f.tests, "%s: %d tests on the reused worker, %d on a fresh one, or they differ", pair, len(got.tests), len(w.tests))
				continue // the traces of different tests say nothing of the Replayers
			}
			for k, g := range got.traces {
				if fr := w.traces[k]; len(g) != len(fr) {
					first(&f.replayer[k], "%s: %d tests traced on the reused worker, %d on a fresh one", pair, len(g), len(fr))
					continue
				}
				for n := range g {
					if fr := w.traces[k][n]; !sameRun(g[n], fr) {
						first(&f.replayer[k], "%s, test %d:\n reused %+v\n fresh  %+v", pair, n, g[n], fr)
					}
				}
			}
		}
	}
	return f
}

// forEachUniverse runs check on the reused-worker oracle's findings in
// every universe, as a subtest named for it.
func forEachUniverse(t *testing.T, check func(*testing.T, reuseUniverse, reuseFindings)) {
	if testing.Short() {
		t.Skip("every spec's pairs in -short mode")
	}
	for _, u := range reuseUniverses {
		t.Run(u.name, func(t *testing.T) {
			t.Parallel()
			f := reusedWorker(u)
			if f.err != nil {
				t.Fatal(f.err)
			}
			check(t, u, f)
		})
	}
}

// TestReusedWorkerIsInvisible pins what lets a sweep worker keep its
// engines — a Solver with its scope, a Generator with its miner, a
// Replayer per kernel — for every pair it runs, as the reused-worker
// oracle (reusedWorker) sees it for all four specs, posix under both FD
// rules: no pair has an unknown path, and each pair's tests on the reused
// worker are reflect.DeepEqual (nil is not empty) to a fresh worker's, in
// every order. The lowest-FD corpus must hold an open or pipe landing on a
// descriptor its setup does not name: those make a kernel build slots
// beside the ones a setup keeps, which the Replayers' comparison
// (TestLongLivedReplayerIsInvisible) must see.
func TestReusedWorkerIsInvisible(t *testing.T) {
	forEachUniverse(t, func(t *testing.T, u reuseUniverse, f reuseFindings) {
		if f.tests != "" {
			t.Error(f.tests)
		}
		t.Logf("%d pairs, %d tests; %d with an open or pipe landing beside their setup's descriptors", f.pairs, f.nTests, f.beside)
		if u.lowestFD && f.beside == 0 {
			t.Error("no open or pipe landed beside its setup's descriptors: no kernel built a slot beside the kept ones")
		}
	})
}

// TestLongLivedSolverIsInvisible pins the Solver's part of the
// reused-worker oracle: each pair counts the same searches, memo hits and
// budget hits on the reused worker's Solver as on a fresh one. A
// remembered answer that survived its pair shows up as missing searches.
// The collector stays on: the Solver's scope interns into a plain map.
func TestLongLivedSolverIsInvisible(t *testing.T) {
	forEachUniverse(t, func(t *testing.T, _ reuseUniverse, f reuseFindings) {
		if f.solver != "" {
			t.Error(f.solver)
		}
	})
}

// TestLongLivedReplayerIsInvisible pins the Replayers' part of the
// reused-worker oracle, per Impl (kernels built through kerneltest.Logged):
// each test the reused worker's Replayer runs gives the results, verdict,
// conflicts and ordered access log a fresh worker's gives. State a pair
// leaves behind that a fresh kernel would not have (a stale map entry, a
// surviving sv6 inode whose radix reads absent) shows up in a later pair;
// the radix only in the log, since its extra loads and stores conflict
// with nothing.
func TestLongLivedReplayerIsInvisible(t *testing.T) {
	forEachUniverse(t, func(t *testing.T, _ reuseUniverse, f reuseFindings) {
		for k, name := range f.impls {
			t.Run(name, func(t *testing.T) {
				if f.replayer[k] != "" {
					t.Error(f.replayer[k])
				}
			})
		}
	})
}

// sameRun reports whether two traced runs of one test agree. Their setups
// and calls are the tests', which are compared whole.
func sameRun(a, b traced) bool {
	return a.res == b.res && a.conflictFree == b.conflictFree && slices.Equal(a.log, b.log) && reflect.DeepEqual(a.conflicts, b.conflicts)
}

// fdBesideSetup reports whether an open or pipe of tr returned a descriptor
// that tr's setup does not name in the call's process.
func fdBesideSetup(tr traced) bool {
	named := func(proc int, fd int64) bool {
		return slices.ContainsFunc(tr.setup.FDs, func(sd kernel.SetupFD) bool { return sd.Proc == proc && sd.FD == fd })
	}
	for i, c := range tr.calls {
		r := tr.res[i]
		if r.Code >= 0 && (c.Op == "open" && !named(c.Proc, r.Code) || c.Op == "pipe" && (!named(c.Proc, r.V1) || !named(c.Proc, r.V2))) {
			return true
		}
	}
	return false
}

// goid is the calling goroutine's id. An executor runs each worker's pairs
// on one goroutine, and a stage's compute on the goroutine that asked for
// it, so within a sweep the id names the worker.
func goid() uint64 {
	var buf [32]byte
	id, _ := strconv.ParseUint(strings.Fields(string(buf[:runtime.Stack(buf[:], false)]))[1], 10, 64)
	return id
}

// event is one thing a sweep's engines or cache did, on goroutine g:
// "read" (a CHECK cell), "kernel" or "generator" (one built), or "fail".
type event struct {
	g    uint64
	what string
}

type eventLog struct {
	mu  sync.Mutex
	log []event
}

func (l *eventLog) add(what string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.log = append(l.log, event{goid(), what})
}

func (l *eventLog) count(what string) int {
	return len(slices.DeleteFunc(slices.Clone(l.log), func(e event) bool { return e.what != what }))
}

// cellReads logs every CHECK-tier read: probeCells reads the first
// kernel's cell before anything else a pair does, ahead of any poll of its
// context, so a pair that starts reads one.
type cellReads struct {
	Backend
	ev *eventLog
}

func (b cellReads) GetCell(key string) (*KernelCell, bool) {
	b.ev.add("read")
	return b.Backend.GetCell(key)
}

// loggedKernels returns the POSIX designs under names of their own (so no
// cache entry or flight of the stock kernels is shared), each kernel
// logging its build and, when panics is set, panicking in the test whose
// calls are (stat, lseek), so in that pair's CHECK.
func loggedKernels(ev *eventLog, panics bool) []KernelSpec {
	var out []KernelSpec
	for _, ks := range testKernels() {
		out = append(out, KernelSpec{Name: "logged-" + ks.Name, New: func() kernel.Kernel {
			ev.add("kernel")
			return &loggedKernel{Kernel: ks.New(), ev: ev, panics: panics}
		}})
	}
	return out
}

type loggedKernel struct {
	kernel.Kernel
	ev     *eventLog
	panics bool
	op0    string
}

func (k *loggedKernel) Exec(core int, c kernel.Call) kernel.Result {
	if core == 0 {
		k.op0 = c.Op
	} else if k.panics && k.op0 == "stat" && c.Op == "lseek" {
		k.ev.add("fail")
		panic("a kernel fails in stat/lseek")
	}
	return k.Kernel.Exec(core, c)
}

// loggedSpec is the posix spec logging each miner it makes (a Generator
// makes one) and, when cancel is set, cancelling its sweep at the 60th
// state ANALYZE builds, partway through the third pair of testOps.
type loggedSpec struct {
	spec.Spec
	ev     *eventLog
	cancel context.CancelFunc
	states atomic.Int64
}

func (s *loggedSpec) NewMiner() spec.SetupMiner {
	s.ev.add("generator")
	return s.Spec.NewMiner()
}

func (s *loggedSpec) NewState(c *symx.Context, cfg spec.Config) spec.State {
	if s.states.Add(1) == 60 && s.cancel != nil {
		s.ev.add("fail")
		s.cancel()
	}
	return s.Spec.NewState(c, cfg)
}

// sweepWorkers runs cfg's sweep on one executor, every job queued before
// any runs, and returns its pairs, its workers as the sweep left them, and
// its error.
func sweepWorkers(ctx context.Context, cfg Config) ([]PairResult, []worker, error) {
	r := newRun(ctx, cfg)
	defer r.close()
	var (
		mu  sync.Mutex
		prs []PairResult
	)
	pairs := Pairs(cfg.Ops)
	ex := r.startExecutor(ctx, len(pairs), func(_ context.Context, _ pairJob, pr PairResult) error {
		mu.Lock()
		defer mu.Unlock()
		prs = append(prs, pr)
		return nil
	})
	for _, p := range pairs {
		ex.submit(pairJob{a: p[0], b: p[1]})
	}
	err := ex.wait()
	return prs, ex.workers, err
}

// engineSweeps runs a cold sweep of testOps on the posix designs with
// workers workers, then a warm one on the same cache, and returns the cold
// sweep's pairs, the workers each sweep left, and the number of kernels;
// ev logs every miner (so every Generator) and every kernel the cold sweep
// built, and the warm sweep must build none.
func engineSweeps(t *testing.T, workers int, ev *eventLog) (cold []PairResult, coldWs, warmWs []worker, nk int) {
	t.Helper()
	cfg := Config{Spec: &loggedSpec{Spec: model.Spec, ev: ev}, Ops: testOps(t), Kernels: loggedKernels(ev, false),
		Workers: workers, Cache: NewMemBackend(0)}
	cold, coldWs, err := sweepWorkers(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(cold) != 6 {
		t.Fatalf("workers=%d: %d pairs", workers, len(cold))
	}
	coldLog := slices.Clone(ev.log)
	ev.log = nil
	warm, warmWs, err := sweepWorkers(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, pr := range warm {
		if !pr.Cached {
			t.Errorf("workers=%d: warm sweep recomputed %s", workers, pr.Pair())
		}
	}
	if len(ev.log) != 0 {
		t.Errorf("workers=%d: warm sweep built engines: %v", workers, ev.log)
	}
	ev.log = coldLog
	return cold, coldWs, warmWs, len(cfg.Kernels)
}

// TestSweepBuildsOneSolverPerWorker pins the symbolic engines' counts: a
// worker builds its Solver and its Generator at its first TESTGEN-tier miss
// and runs every later pair on them, so a cold sweep builds at most one
// Solver and one Generator per worker — the pairs' solver counts add up to
// what the workers' Solvers counted in all — and a warm sweep builds none.
func TestSweepBuildsOneSolverPerWorker(t *testing.T) {
	for _, workers := range []int{1, 2} {
		ev := &eventLog{}
		cold, ws, warmWs, _ := engineSweeps(t, workers, ev)
		var pairs, solvers SolverCounters
		for _, pr := range cold {
			pairs.SatCalls += pr.Solver.SatCalls
			pairs.MemoHits += pr.Solver.MemoHits
		}
		n := 0
		for _, w := range ws {
			if w.solver != nil {
				n++
				st := w.solver.Stats()
				solvers.SatCalls += st.SatCalls
				solvers.MemoHits += st.MemoHits
			}
		}
		if gens := ev.count("generator"); n == 0 || n > workers || gens == 0 || gens > workers {
			t.Fatalf("workers=%d: %d solvers kept, %d generators built", workers, n, gens)
		}
		if pairs.SatCalls == 0 || pairs != solvers {
			t.Errorf("workers=%d: pairs counted %+v, the workers' solvers %+v: a pair ran on a solver the worker did not keep",
				workers, pairs, solvers)
		}
		for i, w := range warmWs {
			if w.solver != nil || w.gen != nil {
				t.Errorf("workers=%d: warm sweep's worker %d built a Solver or a Generator", workers, i)
			}
		}
	}
}

// TestSweepBuildsOneKernelPerWorker pins the kernel count: a worker builds
// each kernel at its first CHECK and replays every later pair on it, so a
// cold sweep builds at most workers × kernels, not one per pair and
// kernel, and a warm sweep builds none.
func TestSweepBuildsOneKernelPerWorker(t *testing.T) {
	for _, workers := range []int{1, 2} {
		ev := &eventLog{}
		cold, _, warmWs, nk := engineSweeps(t, workers, ev)
		if kernels := ev.count("kernel"); workers == 1 && kernels != nk || kernels < nk || kernels > workers*nk {
			t.Errorf("workers=%d: %d kernels built for %d pairs, want at most %d", workers, kernels, len(cold), workers*nk)
		}
		for i, w := range warmWs {
			if w.reps != nil {
				t.Errorf("workers=%d: warm sweep's worker %d built a Replayer", workers, i)
			}
		}
	}
}

// failedPairRetires runs testOps' sweep with workers workers until a pair
// fails — a kernel's panic in its CHECK, or a cancellation in the middle of
// its ANALYZE — and pins the one error rule a worker's engines share: the
// sweep returns that error, and no pair starts on the failed pair's worker
// afterwards, so no engine it may have left half-way is reused; with one
// worker, nothing at all starts and no kernel is built after the failure.
// Every job is queued before any runs, as a fleet's leases are, so the jobs
// left are already waiting on the workers.
func failedPairRetires(t *testing.T, workers int, failure string) {
	t.Helper()
	ev := &eventLog{}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sp, want := &loggedSpec{Spec: model.Spec, ev: ev}, "a kernel fails in stat/lseek"
	if failure == "cancelled analysis" {
		sp.cancel, want = cancel, context.Canceled.Error()
	}
	_, _, err := sweepWorkers(ctx, Config{Spec: sp, Ops: testOps(t), Kernels: loggedKernels(ev, failure == "kernel panic"),
		Workers: workers, Cache: cellReads{NewMemBackend(0), ev}})
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("workers=%d, %s: the sweep returned %v, want %q", workers, failure, err, want)
	}
	fail := slices.IndexFunc(ev.log, func(e event) bool { return e.what == "fail" })
	if fail < 0 || !slices.ContainsFunc(ev.log[:fail], func(e event) bool { return e.what == "read" }) {
		t.Fatalf("workers=%d, %s: no pair ran before the failure: %v", workers, failure, ev.log)
	}
	for _, e := range ev.log[fail+1:] {
		if e.g == ev.log[fail].g || workers == 1 {
			t.Errorf("workers=%d, %s: after its pair failed, the worker's sweep went on: %s", workers, failure, e.what)
		}
	}
}

// TestWorkerSolverDroppedAfterError pins that a worker's Solver (and its
// Generator) is dropped with the worker when a pair fails mid-ANALYZE: a
// cancellation at ANALYZE's 60th state, in the third pair, retires the
// worker (failedPairRetires), at one worker and at two.
func TestWorkerSolverDroppedAfterError(t *testing.T) {
	for _, workers := range []int{1, 2} {
		failedPairRetires(t, workers, "cancelled analysis")
	}
}

// TestWorkerReplayerDroppedAfterError pins that a worker's Replayers are
// dropped with the worker when a pair fails in CHECK: a kernel panicking in
// stat/lseek's test retires the worker (failedPairRetires), at one worker
// and at two.
func TestWorkerReplayerDroppedAfterError(t *testing.T) {
	for _, workers := range []int{1, 2} {
		failedPairRetires(t, workers, "kernel panic")
	}
}
