package sweep

import (
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/kernel"
	"repro/internal/spec"
)

// countingBackend wraps a Backend, counting Put calls per key and letting
// a test intercept GetTests (to hold a flight leader inside its work
// function at a known point). All sweeps sharing one countingBackend share
// its String(), and therefore its flight key space.
type countingBackend struct {
	Backend
	onGetTests func(key string)

	mu       sync.Mutex
	putTests map[string]int
	putCells map[string]int
}

func newCountingBackend(inner Backend) *countingBackend {
	return &countingBackend{
		Backend:  inner,
		putTests: make(map[string]int),
		putCells: make(map[string]int),
	}
}

func (c *countingBackend) GetTests(key string) ([]kernel.TestCase, bool) {
	if c.onGetTests != nil {
		c.onGetTests(key)
	}
	return c.Backend.GetTests(key)
}

func (c *countingBackend) PutTests(key string, tests []kernel.TestCase) error {
	c.mu.Lock()
	c.putTests[key]++
	c.mu.Unlock()
	return c.Backend.PutTests(key, tests)
}

func (c *countingBackend) PutCell(key string, cell KernelCell) error {
	c.mu.Lock()
	c.putCells[key]++
	c.mu.Unlock()
	return c.Backend.PutCell(key, cell)
}

// waitPending polls until key's testgen flight has want attached callers.
// On timeout it records the failure and returns (it may run on a worker
// goroutine, where FailNow would strand the sweep), letting the test
// finish and report.
func waitPending(t *testing.T, key string, want int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for testgenFlights.Pending(key) != want {
		if time.Now().After(deadline) {
			t.Errorf("flight %s never reached %d attached callers (have %d)",
				key, want, testgenFlights.Pending(key))
			return
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestConcurrentIdenticalSweepsExecuteOnce is the coalescing acceptance
// test: N concurrent identical cold sweeps over one shared backend store
// every cache entry exactly once — each TESTGEN and each CHECK executed
// once, everyone else either shared the in-flight execution or hit the
// entry it stored — and every sweep reports an identical result payload.
func TestConcurrentIdenticalSweepsExecuteOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("pipeline in -short mode")
	}
	ops, kernels := testOps(t), testKernels()
	backend := newCountingBackend(NewMemBackend(0))
	cfg := Config{Ops: ops, Kernels: kernels, Workers: 4, Cache: backend}

	const sweeps = 4
	results := make([]*Result, sweeps)
	errs := make([]error, sweeps)
	var wg sync.WaitGroup
	for i := range sweeps {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], errs[i] = runSweep(cfg)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("sweep %d: %v", i, err)
		}
	}

	// Exactly one execution per stage: every stored key was stored once.
	backend.mu.Lock()
	for key, n := range backend.putTests {
		if n != 1 {
			t.Errorf("testgen key %s stored %d times, want 1", key, n)
		}
	}
	for key, n := range backend.putCells {
		if n != 1 {
			t.Errorf("check key %s stored %d times, want 1", key, n)
		}
	}
	wantKeys := len(ops) * (len(ops) + 1) / 2
	if len(backend.putTests) != wantKeys || len(backend.putCells) != wantKeys*len(kernels) {
		t.Errorf("stored %d testgen / %d check keys, want %d / %d",
			len(backend.putTests), len(backend.putCells), wantKeys, wantKeys*len(kernels))
	}
	backend.mu.Unlock()

	// Identical payloads for every sweep, byte for byte once the
	// fields that legitimately differ (timings, which sweep led vs
	// shared vs hit the cache) are stripped.
	want, err := json.Marshal(stripTiming(results[0].Pairs))
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < sweeps; i++ {
		got, err := json.Marshal(stripTiming(results[i].Pairs))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("sweep %d payload diverges from sweep 0\ngot  %s\nwant %s", i, got, want)
		}
	}

	// The work was accounted exactly once across the fleet: per tier,
	// the sweeps' summed misses equal the number of distinct keys (each
	// missed by its one leader; waiters and later hits did no tier probe
	// or hit the stored entry).
	var total CacheStats
	for _, res := range results {
		total.TestgenMisses += res.Cache.TestgenMisses
		total.CheckMisses += res.Cache.CheckMisses
	}
	if total.TestgenMisses != wantKeys {
		t.Errorf("summed testgen misses = %d, want %d (one per key)", total.TestgenMisses, wantKeys)
	}
	if total.CheckMisses != wantKeys*len(kernels) {
		t.Errorf("summed check misses = %d, want %d (one per key)", total.CheckMisses, wantKeys*len(kernels))
	}
}

// TestCoalescedWaitersShareLeader forces true in-flight sharing (not a
// cache hit after the fact): the leader is held inside the flight until
// every sweep has attached, so all other sweeps must report the pair
// Coalesced with the same test count.
func TestCoalescedWaitersShareLeader(t *testing.T) {
	if testing.Short() {
		t.Skip("pipeline in -short mode")
	}
	op := testOp(t, "stat")
	kernels := testKernels()[:1]

	const sweeps = 3
	backend := newCountingBackend(NewMemBackend(0))
	cfg := Config{Ops: []*spec.Op{op}, Kernels: kernels, Workers: 1, Cache: backend}
	tgKey := TestgenKey("posix", "stat", "stat", cfg.Analyzer, cfg.Testgen)
	fid := flightID(backend, tgKey)

	// The leader announces itself from inside the flight and then holds
	// until every sweep is attached to it.
	var gateOnce sync.Once
	backend.onGetTests = func(key string) {
		gateOnce.Do(func() { waitPending(t, fid, sweeps) })
	}

	results := make([]*Result, sweeps)
	errs := make([]error, sweeps)
	var wg sync.WaitGroup
	for i := range sweeps {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], errs[i] = runSweep(cfg)
		}()
	}
	wg.Wait()

	var led, coalesced int
	for i := range sweeps {
		if errs[i] != nil {
			t.Fatalf("sweep %d: %v", i, errs[i])
		}
		if n := len(results[i].Pairs); n != 1 {
			t.Fatalf("sweep %d: %d pairs, want 1", i, n)
		}
		// The TESTGEN leader is the sweep that ran the analysis, whoever
		// went on to lead the CHECK flight: the three race for that one
		// once the gate opens, and the loser is marked Coalesced too.
		p := results[i].Pairs[0]
		switch {
		case p.Phases.AnalyzeMS > 0:
			led++
			if p.Tests == 0 {
				t.Errorf("sweep %d: leader generated no tests", i)
			}
		case p.Coalesced:
			coalesced++
			if p.Cached {
				t.Errorf("sweep %d: pair both coalesced and cached", i)
			}
		}
	}
	if led != 1 || coalesced != sweeps-1 {
		t.Errorf("led=%d coalesced=%d, want 1 leader and %d waiters", led, coalesced, sweeps-1)
	}
	for i := 1; i < sweeps; i++ {
		if results[i].Pairs[0].Tests != results[0].Pairs[0].Tests {
			t.Errorf("sweep %d test count %d != sweep 0's %d",
				i, results[i].Pairs[0].Tests, results[0].Pairs[0].Tests)
		}
	}
	if n := backend.putTests[tgKey]; n != 1 {
		t.Errorf("testgen executed %d times, want 1", n)
	}
}

// TestCanceledLeaderHandsOffToWaiter pins the cancellation contract at the
// engine level: cancelling the sweep that leads a flight must not fail the
// concurrent sweep waiting on it — a waiter takes over and completes.
func TestCanceledLeaderHandsOffToWaiter(t *testing.T) {
	if testing.Short() {
		t.Skip("pipeline in -short mode")
	}
	op := testOp(t, "stat")
	kernels := testKernels()[:1]

	backend := newCountingBackend(NewMemBackend(0))
	cfg := Config{Ops: []*spec.Op{op}, Kernels: kernels, Workers: 1, Cache: backend}
	tgKey := TestgenKey("posix", "stat", "stat", cfg.Analyzer, cfg.Testgen)
	fid := flightID(backend, tgKey)

	// The first GetTests call (the original leader, inside the flight)
	// blocks until released; the waiter's re-execution passes through.
	leaderIn := make(chan struct{})
	release := make(chan struct{})
	var gateOnce sync.Once
	backend.onGetTests = func(key string) {
		gateOnce.Do(func() {
			close(leaderIn)
			<-release
		})
	}

	lctx, cancelLeader := context.WithCancel(context.Background())
	defer cancelLeader()
	leaderErr := make(chan error, 1)
	go func() {
		_, err := RunContext(lctx, cfg)
		leaderErr <- err
	}()
	<-leaderIn

	waiterRes := make(chan *Result, 1)
	waiterErr := make(chan error, 1)
	go func() {
		res, err := runSweep(cfg)
		waiterRes <- res
		waiterErr <- err
	}()
	waitPending(t, fid, 2)

	// Cancel the leader, then let it out of the gate: its compute fails
	// with the context error, and the flight token passes to the waiter.
	cancelLeader()
	close(release)

	if err := <-leaderErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled leader returned %v, want context.Canceled", err)
	}
	if err := <-waiterErr; err != nil {
		t.Fatalf("waiter sweep failed: %v", err)
	}
	res := <-waiterRes
	if len(res.Pairs) != 1 || res.Pairs[0].Tests == 0 {
		t.Fatalf("waiter result %+v, want one computed pair", res.Pairs)
	}
	if res.Pairs[0].Coalesced {
		t.Error("the waiter re-executed, so its pair must not be marked coalesced")
	}
	if n := backend.putTests[tgKey]; n != 1 {
		t.Errorf("testgen stored %d times, want 1 (the waiter's re-execution)", n)
	}
}

// TestDistinctBackendsDoNotShareFlights pins flightID's scoping: backends
// whose String() renders alike ("mem:4096") are still distinct stores, so
// two concurrent cold sweeps over two of them must each execute and
// populate their own — a waiter handed the other sweep's result would leave
// its backend cold. Sweep A is held inside its CHECK stage until sweep B
// (started once A is there) has finished, so B overlaps A's open flight.
func TestDistinctBackendsDoNotShareFlights(t *testing.T) {
	if testing.Short() {
		t.Skip("pipeline in -short mode")
	}
	op := testOp(t, "stat")
	ks := testKernels()[0]
	for name, open := range map[string]func() Backend{
		"mem":    func() Backend { return NewMemBackend(0) },
		"tiered": func() Backend { return Tiered(NewMemBackend(0), NewMemBackend(0)) },
	} {
		t.Run(name, func(t *testing.T) {
			cfgA := Config{Ops: []*spec.Op{op}, Kernels: []KernelSpec{ks}, Workers: 1, Cache: open()}
			cfgB := cfgA
			cfgB.Cache = open()

			aIn, bDone := make(chan struct{}), make(chan struct{})
			var once sync.Once
			held := cfgA
			held.Kernels = []KernelSpec{{Name: ks.Name, New: func() kernel.Kernel {
				once.Do(func() { close(aIn) })
				select {
				case <-bDone:
				case <-time.After(5 * time.Second): // B is stuck waiting on this flight
				}
				return ks.New()
			}}}
			aErr := make(chan error, 1)
			go func() {
				_, err := runSweep(held)
				aErr <- err
			}()
			<-aIn
			_, err := runSweep(cfgB)
			close(bDone)
			if err != nil {
				t.Fatalf("sweep B: %v", err)
			}
			if err := <-aErr; err != nil {
				t.Fatalf("sweep A: %v", err)
			}

			for which, cfg := range map[string]Config{"A": cfgA, "B": cfgB} {
				res, err := runSweep(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if res.Cache.Misses() != 0 || res.Cache.Hits() != 2 {
					t.Errorf("rerun on backend %s: %+v, want 2 hits and no miss (its own sweep left it cold)", which, res.Cache)
				}
			}
		})
	}
}
