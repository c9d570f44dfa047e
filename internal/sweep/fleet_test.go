package sweep

import (
	"bytes"
	"context"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/analyzer"
	"repro/internal/kvspec"
	"repro/internal/obs"
	"repro/internal/spec"
	"repro/internal/sym"
	"repro/internal/testgen"
)

// fakeClock is an injectable clock for lease-expiry tests: time moves
// only when the test says so, making every expiry decision deterministic.
type fakeClock struct{ ns atomic.Int64 }

func newFakeClock() *fakeClock {
	c := &fakeClock{}
	c.ns.Store(time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC).UnixNano())
	return c
}

func (c *fakeClock) Now() time.Time          { return time.Unix(0, c.ns.Load()) }
func (c *fakeClock) Advance(d time.Duration) { c.ns.Add(int64(d)) }

func claimReq(worker string, max int) FleetClaimRequest {
	return FleetClaimRequest{Version: FleetAPIVersion, Worker: worker, Max: max}
}

// TestFleetSweepSpecPairNames pins that the coordinator's spec-free work
// list enumeration matches the engine's Pairs orientation exactly — the
// property that lets lease names round-trip to ops on any worker.
func TestFleetSweepSpecPairNames(t *testing.T) {
	ops := testOps(t)
	sw := FleetSweepSpec{Ops: []string{"stat", "lseek", "close"}}
	var want []string
	for _, j := range Pairs(ops) {
		want = append(want, j[0].Name+"/"+j[1].Name)
	}
	if got := sw.PairNames(); !reflect.DeepEqual(got, want) {
		t.Errorf("PairNames = %v, want %v (Pairs orientation)", got, want)
	}
}

// TestFleetSweepSpecKey pins session identity: semantically identical
// specs (zero caps vs explicit defaults) share a key, different option
// values do not.
func TestFleetSweepSpecKey(t *testing.T) {
	base := FleetSweepSpec{Spec: "posix", Ops: []string{"stat", "close"}, Kernels: []string{"linux"}}
	norm := base
	norm.MaxPaths, norm.MaxTestsPerPath = 4096, 4
	if base.Key() != norm.Key() {
		t.Error("zero caps and explicit defaults should share a session key")
	}
	for _, mut := range []func(*FleetSweepSpec){
		func(s *FleetSweepSpec) { s.Spec = "queue" },
		func(s *FleetSweepSpec) { s.Ops = []string{"close", "stat"} },
		func(s *FleetSweepSpec) { s.Kernels = []string{"sv6"} },
		func(s *FleetSweepSpec) { s.LowestFD, s.TestgenLowestFD = true, true },
		func(s *FleetSweepSpec) { s.MaxPaths = 7 },
		func(s *FleetSweepSpec) { s.MaxTestsPerPath = 1 },
	} {
		v := base
		mut(&v)
		if v.Key() == base.Key() {
			t.Errorf("%+v should not share a session key with %+v", v, base)
		}
	}
	// The one lowest-FD setting fills both of the wire fields it used to
	// be, so members on either side of the merge join the same session.
	fs := FleetSpec(mustSpec(t), Config{Analyzer: analyzer.Options{Config: spec.Config{LowestFD: true}}})
	if !fs.LowestFD || !fs.TestgenLowestFD {
		t.Errorf("FleetSpec under the lowest-FD rule: %+v, want both legacy fields set", fs)
	}
}

// TestFleetTableClaimAndDoubleClaim pins the basic grant discipline: a
// pair whose lease is live is never granted twice, no matter who asks.
func TestFleetTableClaimAndDoubleClaim(t *testing.T) {
	clk := newFakeClock()
	tab := NewFleetTable("deadbeef", []string{"a/a", "b/a", "b/b"}, 10*time.Second, clk.Now)

	r1 := tab.Claim(claimReq("w1", 2))
	if len(r1.Leases) != 2 || r1.Leases[0].Pair != "a/a" || r1.Leases[1].Pair != "b/a" {
		t.Fatalf("w1 claim: %+v, want head-first [a/a b/a]", r1.Leases)
	}
	for _, l := range r1.Leases {
		if l.Stolen {
			t.Errorf("first grant of %s marked stolen", l.Pair)
		}
	}

	// w2 gets only the remaining pending pair — the two live leases are
	// invisible to it.
	r2 := tab.Claim(claimReq("w2", 5))
	if len(r2.Leases) != 1 || r2.Leases[0].Pair != "b/b" {
		t.Fatalf("w2 claim: %+v, want [b/b]", r2.Leases)
	}
	if r3 := tab.Claim(claimReq("w2", 5)); len(r3.Leases) != 0 {
		t.Fatalf("w2 re-claim with everything leased granted %+v", r3.Leases)
	}
	if r2.Pending != 0 || r2.Leased != 3 || r2.Total != 3 {
		t.Errorf("counts after full lease-out: %+v", r2)
	}
}

// TestFleetTableExpirySteal pins TTL stealing with a fake clock: an
// unrenewed lease is re-issued (tail-first, marked stolen) exactly when
// it expires, and renewal pushes expiry out.
func TestFleetTableExpirySteal(t *testing.T) {
	clk := newFakeClock()
	tab := NewFleetTable("deadbeef", []string{"a/a", "b/a", "b/b"}, 10*time.Second, clk.Now)

	r1 := tab.Claim(claimReq("w1", 3))
	if len(r1.Leases) != 3 {
		t.Fatalf("w1 claimed %d leases, want 3", len(r1.Leases))
	}

	// Renew one lease just before expiry; let the other two lapse.
	clk.Advance(9 * time.Second)
	renew := claimReq("w1", 0)
	renew.Renew = []string{r1.Leases[0].ID}
	tab.Claim(renew)
	clk.Advance(2 * time.Second) // 11s: unrenewed leases expired, renewed one is 2s old

	r2 := tab.Claim(claimReq("w2", 3))
	if len(r2.Leases) != 2 {
		t.Fatalf("w2 stole %d leases, want the 2 expired: %+v", len(r2.Leases), r2.Leases)
	}
	// Tail-first: the thief drains toward the head the victim works from.
	if r2.Leases[0].Pair != "b/b" || r2.Leases[1].Pair != "b/a" {
		t.Errorf("steal order %+v, want tail-first [b/b b/a]", r2.Leases)
	}
	for _, l := range r2.Leases {
		if !l.Stolen {
			t.Errorf("re-issued lease for %s not marked stolen", l.Pair)
		}
	}

	// The renewed lease is live; nobody can steal it yet.
	if r3 := tab.Claim(claimReq("w3", 3)); len(r3.Leases) != 0 {
		t.Fatalf("renewed lease stolen early: %+v", r3.Leases)
	}
	st := tab.Status(false)
	if st.Workers["w2"].Stolen != 2 {
		t.Errorf("w2 stolen count = %d, want 2", st.Workers["w2"].Stolen)
	}
}

// TestFleetTableReleaseRequeue pins requeue-on-cancel: a released lease
// is claimable immediately, with no clock advance at all.
func TestFleetTableReleaseRequeue(t *testing.T) {
	clk := newFakeClock()
	tab := NewFleetTable("deadbeef", []string{"a/a", "b/a"}, 10*time.Second, clk.Now)

	r1 := tab.Claim(claimReq("w1", 2))
	rel := claimReq("w1", 0)
	rel.Release = []string{r1.Leases[0].ID, r1.Leases[1].ID}
	tab.Claim(rel)

	r2 := tab.Claim(claimReq("w2", 2))
	if len(r2.Leases) != 2 {
		t.Fatalf("released leases not immediately claimable: %+v", r2.Leases)
	}
	if st := tab.Status(false); st.Requeued != 2 {
		t.Errorf("requeued = %d, want 2", st.Requeued)
	}

	// A foreign or stale release is a no-op, not a steal vector.
	rel2 := claimReq("w1", 0)
	rel2.Release = []string{r2.Leases[0].ID}
	tab.Claim(rel2)
	if r3 := tab.Claim(claimReq("w3", 2)); len(r3.Leases) != 0 {
		t.Fatalf("w1 released w2's lease: %+v", r3.Leases)
	}
}

// TestFleetTableCompleteIdempotent pins result-post semantics: first
// completion wins, repeats are duplicates, unknown pairs are stale, and
// Done trips exactly when the last pair lands.
func TestFleetTableCompleteIdempotent(t *testing.T) {
	clk := newFakeClock()
	tab := NewFleetTable("deadbeef", []string{"a/a", "b/a"}, 10*time.Second, clk.Now)
	tab.Claim(claimReq("w1", 2))

	done := func(a, b string) []FleetPairDone {
		return []FleetPairDone{{Pair: PairResult{OpA: a, OpB: b, Tests: 1}}}
	}
	r := tab.Complete("w1", done("a", "a"))
	if r.Accepted != 1 || r.Done {
		t.Fatalf("first completion: %+v", r)
	}
	if r = tab.Complete("w2", done("a", "a")); r.Duplicate != 1 || r.Accepted != 0 {
		t.Fatalf("repeat completion: %+v", r)
	}
	if r = tab.Complete("w2", done("zz", "zz")); r.Stale != 1 {
		t.Fatalf("unknown pair: %+v", r)
	}
	if r = tab.Complete("w2", done("b", "a")); !r.Done || r.Completed != 2 {
		t.Fatalf("final completion: %+v", r)
	}
	st := tab.Status(true)
	if !st.Done || len(st.Results) != 2 {
		t.Fatalf("status after done: %+v", st)
	}
	if st.Results[0].Pair() != "a/a" || st.Results[1].Pair() != "b/a" {
		t.Errorf("results unsorted: %v, %v", st.Results[0].Pair(), st.Results[1].Pair())
	}
}

// countingFleet wraps a FleetClient and records, per pair, how many
// result posts it carried — the exactly-once ledger the fleet tests
// assert against — and how many claims it carried.
type countingFleet struct {
	FleetClient
	mu       sync.Mutex
	reported map[string]int
	claims   atomic.Int64
}

func (c *countingFleet) Claim(ctx context.Context, req FleetClaimRequest) (FleetClaimResponse, error) {
	c.claims.Add(1)
	return c.FleetClient.Claim(ctx, req)
}

func newCountingFleet(fc FleetClient) *countingFleet {
	return &countingFleet{FleetClient: fc, reported: map[string]int{}}
}

func (c *countingFleet) Report(ctx context.Context, req FleetResultRequest) (FleetResultResponse, error) {
	c.mu.Lock()
	for _, item := range req.Results {
		c.reported[item.Pair.Pair()]++
	}
	c.mu.Unlock()
	return c.FleetClient.Report(ctx, req)
}

// TestSweepRejectsCallerSolver pins that the engine owns its solvers: a
// Config carrying one is refused by both drivers before any pair runs (a
// shared solver would carry budget state across pairs, and cannot cross
// servers at all), with nothing claimed from the coordinator.
func TestSweepRejectsCallerSolver(t *testing.T) {
	ops, kernels := testOps(t), testKernels()
	for name, cfg := range map[string]Config{
		"analyzer": {Ops: ops, Kernels: kernels, Analyzer: analyzer.Options{Solver: &sym.Solver{}}},
		"testgen":  {Ops: ops, Kernels: kernels, Testgen: testgen.Options{Solver: &sym.Solver{}}},
	} {
		cfg.Progress = func(Event) { t.Errorf("%s solver: a pair ran", name) }
		if res, err := RunContext(context.Background(), cfg); err == nil || res != nil {
			t.Errorf("%s solver: RunContext returned %v, %v; want an error", name, res, err)
		}
		fc := newCountingFleet(LocalFleet(NewFleetHub(0, nil)))
		if res, err := RunFleet(context.Background(), cfg, fc); err == nil || res != nil {
			t.Errorf("%s solver: RunFleet returned %v, %v; want an error", name, res, err)
		}
		if n := fc.claims.Load(); n != 0 {
			t.Errorf("%s solver: RunFleet claimed %d times before refusing", name, n)
		}
	}
}

// TestRunFleetMatchesRunContext is the tentpole contract: two workers
// sharing one coordinator each return the complete matrix, identical to
// a single-process RunContext of the same Config, and every pair is
// executed exactly once fleet-wide.
func TestRunFleetMatchesRunContext(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep pipeline in -short mode")
	}
	ops, kernels := testOps(t), testKernels()
	want := stripTiming(mustRun(t, Config{Ops: ops, Kernels: kernels, Workers: 2}).Pairs)

	hub := NewFleetHub(0, nil)
	counting := newCountingFleet(LocalFleet(hub))
	var wg sync.WaitGroup
	results := make([]*Result, 2)
	errs := make([]error, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cfg := Config{Ops: ops, Kernels: kernels, Workers: 2, FleetWorker: []string{"w1", "w2"}[i]}
			results[i], errs[i] = RunFleet(context.Background(), cfg, counting)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
	for i, res := range results {
		if got := stripTiming(res.Pairs); !reflect.DeepEqual(got, want) {
			t.Errorf("worker %d matrix diverges from RunContext\ngot  %+v\nwant %+v", i, got, want)
		}
	}

	counting.mu.Lock()
	defer counting.mu.Unlock()
	if len(counting.reported) != len(want) {
		t.Errorf("fleet executed %d distinct pairs, want %d", len(counting.reported), len(want))
	}
	for pair, n := range counting.reported {
		if n != 1 {
			t.Errorf("pair %s executed %d times fleet-wide, want exactly once", pair, n)
		}
	}
}

func mustRun(t *testing.T, cfg Config) *Result {
	t.Helper()
	res, err := RunContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// cancelAfterClaim cancels the worker's context as soon as its first
// claim granted leases — the "worker killed mid-sweep" shape.
type cancelAfterClaim struct {
	FleetClient
	cancel  context.CancelFunc
	tripped atomic.Bool
}

func (c *cancelAfterClaim) Claim(ctx context.Context, req FleetClaimRequest) (FleetClaimResponse, error) {
	resp, err := c.FleetClient.Claim(ctx, req)
	if err == nil && len(resp.Leases) > 0 && !c.tripped.Swap(true) {
		c.cancel()
	}
	return resp, err
}

// TestRunFleetCancelRequeues pins lease loss on cancellation: a worker
// canceled while holding leases releases them on its way out (requeue,
// not completion), so a second worker finishes the full matrix without
// any lease ever expiring — the hub runs the default 30s TTL and the
// test finishes in a fraction of that.
func TestRunFleetCancelRequeues(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep pipeline in -short mode")
	}
	ops, kernels := testOps(t), testKernels()
	want := stripTiming(mustRun(t, Config{Ops: ops, Kernels: kernels, Workers: 2}).Pairs)

	hub := NewFleetHub(0, nil)
	actx, acancel := context.WithCancel(context.Background())
	defer acancel()
	fcA := &cancelAfterClaim{FleetClient: LocalFleet(hub), cancel: acancel}
	_, errA := RunFleet(actx, Config{Ops: ops, Kernels: kernels, Workers: 2, FleetWorker: "doomed"}, fcA)
	if errA == nil {
		t.Fatal("canceled worker returned no error")
	}

	res, err := RunFleet(context.Background(), Config{Ops: ops, Kernels: kernels, Workers: 2, FleetWorker: "survivor"}, LocalFleet(hub))
	if err != nil {
		t.Fatal(err)
	}
	if got := stripTiming(res.Pairs); !reflect.DeepEqual(got, want) {
		t.Errorf("matrix after mid-sweep cancellation diverges (truncated?)\ngot  %+v\nwant %+v", got, want)
	}
	st, err := LocalFleet(hub).Status(context.Background(), FleetSpec(mustSpec(t), Config{Ops: ops, Kernels: kernels}), false)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Done {
		t.Error("sweep not done after survivor finished")
	}
	if st.Workers["doomed"].Leased != 0 {
		t.Errorf("doomed worker still holds %d leases after cancellation", st.Workers["doomed"].Leased)
	}
}

func mustSpec(t *testing.T) spec.Spec {
	t.Helper()
	sp, err := spec.Lookup("posix")
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

// TestRunFleetSlowPeerTailFinish pins stealing end to end with a fake
// clock: a peer that claims part of the sweep and then goes silent does
// not wedge it — once its leases expire, the live worker steals the tail
// and still produces the complete matrix.
func TestRunFleetSlowPeerTailFinish(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep pipeline in -short mode")
	}
	ops, kernels := testOps(t), testKernels()
	want := stripTiming(mustRun(t, Config{Ops: ops, Kernels: kernels, Workers: 2}).Pairs)

	clk := newFakeClock()
	hub := NewFleetHub(0, clk.Now)
	cfg := Config{Ops: ops, Kernels: kernels, Workers: 2, FleetWorker: "fast"}
	fspec := FleetSpec(mustSpec(t), cfg)

	// The slow peer claims two pairs and is never heard from again.
	dead, err := hub.Claim(FleetClaimRequest{Version: FleetAPIVersion, Worker: "slow", Max: 2, Sweep: fspec})
	if err != nil {
		t.Fatal(err)
	}
	if len(dead.Leases) != 2 {
		t.Fatalf("slow peer claimed %d leases, want 2", len(dead.Leases))
	}
	// Its leases expire in fake time before the fast worker ever polls.
	clk.Advance(DefaultFleetTTL + time.Second)

	res, err := RunFleet(context.Background(), cfg, LocalFleet(hub))
	if err != nil {
		t.Fatal(err)
	}
	if got := stripTiming(res.Pairs); !reflect.DeepEqual(got, want) {
		t.Errorf("matrix with a dead peer diverges\ngot  %+v\nwant %+v", got, want)
	}
	st, err := LocalFleet(hub).Status(context.Background(), fspec, false)
	if err != nil {
		t.Fatal(err)
	}
	if st.Workers["fast"].Stolen != 2 {
		t.Errorf("fast worker stole %d leases, want the dead peer's 2", st.Workers["fast"].Stolen)
	}
}

// TestFleetHubLateJoiner pins completed-session retention: a worker
// arriving after the sweep finished is answered from the finished table
// (deterministic results make that equivalent to recomputing).
func TestFleetHubLateJoiner(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep pipeline in -short mode")
	}
	ops, kernels := testOps(t), testKernels()
	hub := NewFleetHub(0, nil)
	cfg := Config{Ops: ops, Kernels: kernels, Workers: 2, FleetWorker: "first"}
	first, err := RunFleet(context.Background(), cfg, LocalFleet(hub))
	if err != nil {
		t.Fatal(err)
	}
	counting := newCountingFleet(LocalFleet(hub))
	cfg.FleetWorker = "late"
	late, err := RunFleet(context.Background(), cfg, counting)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(stripTiming(late.Pairs), stripTiming(first.Pairs)) {
		t.Error("late joiner's matrix diverges from the fleet's")
	}
	counting.mu.Lock()
	defer counting.mu.Unlock()
	if len(counting.reported) != 0 {
		t.Errorf("late joiner re-executed %d pairs of a finished sweep", len(counting.reported))
	}
}

// TestFleetHubReportUnknownSession pins the coordinator-restart
// semantics: results cannot be posted into a session nobody claimed
// from.
func TestFleetHubReportUnknownSession(t *testing.T) {
	hub := NewFleetHub(0, nil)
	_, err := hub.Report(FleetResultRequest{
		Version: FleetAPIVersion, Worker: "w",
		Sweep: FleetSweepSpec{Spec: "posix", Ops: []string{"stat"}},
	})
	if err == nil || !strings.Contains(err.Error(), "unknown sweep") {
		t.Fatalf("report into unknown session: %v, want unknown-sweep error", err)
	}
}

// fleetSeries counts the commuter_fleet_* series the process-wide
// registry currently exposes.
func fleetSeries(t *testing.T) int {
	t.Helper()
	var buf bytes.Buffer
	if err := obs.Default.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, line := range strings.Split(buf.String(), "\n") {
		if strings.HasPrefix(line, "commuter_fleet_") {
			n++
		}
	}
	return n
}

// TestFleetMetricSeriesBounded pins that a coordinator's metrics do not
// grow with the sweeps it serves: every RunFleet call mints a fresh worker
// name, so a series per worker would never stop accumulating.
func TestFleetMetricSeriesBounded(t *testing.T) {
	hub := NewFleetHub(0, nil)
	sweep := func(sel string) {
		t.Helper()
		ops, err := spec.OpSet(kvspec.Spec, sel)
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{Spec: kvspec.Spec, Ops: ops, Kernels: []KernelSpec{implSpec(kvspec.Spec, t)}, Workers: 2}
		res, err := RunFleet(context.Background(), cfg, LocalFleet(hub))
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Pairs) != len(ops)*(len(ops)+1)/2 {
			t.Fatalf("sweep of %s returned %d pairs", sel, len(res.Pairs))
		}
	}
	sweep("get,put")
	one := fleetSeries(t)
	// A different op list is a different session, so the second sweep
	// leases and completes pairs under its own worker name.
	sweep("get,delete")
	if two := fleetSeries(t); two != one || one == 0 {
		t.Errorf("commuter_fleet_* series: %d after one fleet sweep, %d after two", one, two)
	}
}

// hostileSweeps are claims a coordinator must refuse before it builds a
// table from them: a table has a row per pair of the names a request
// lists, so only names checked against a registered spec bound it. want is
// the guidance the refusal carries.
var hostileSweeps = []struct {
	name string
	sw   FleetSweepSpec
	want string
}{
	{"unregistered spec", FleetSweepSpec{Spec: "nope", Ops: manyNames(40)}, "known specs: "},
	{"no spec", FleetSweepSpec{Ops: []string{"stat"}}, "known specs: "},
	{"unknown op", FleetSweepSpec{Spec: "posix", Ops: []string{"stat", "statt"}}, "known ops: "},
	{"repeated op", FleetSweepSpec{Spec: "posix", Ops: []string{"stat", "close", "stat"}}, `"stat" twice`},
}

func manyNames(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = "op" + strings.Repeat("x", i)
	}
	return out
}

// TestFleetHubRefusesUncheckedSweep pins that a claim cannot make the
// coordinator allocate a session for a sweep no registered spec has: the
// claim fails with guidance, and nothing is left behind for it.
func TestFleetHubRefusesUncheckedSweep(t *testing.T) {
	hub := NewFleetHub(0, nil)
	for _, tc := range hostileSweeps {
		_, err := hub.Claim(FleetClaimRequest{Version: FleetAPIVersion, Worker: "w", Max: 1, Sweep: tc.sw})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: claim answered %v, want a refusal containing %q", tc.name, err, tc.want)
		}
		if _, err := hub.Status(tc.sw, false); err == nil || !strings.Contains(err.Error(), "unknown sweep") {
			t.Errorf("%s: status after the refused claim: %v, want unknown sweep", tc.name, err)
		}
	}
}
