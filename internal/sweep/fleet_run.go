package sweep

import (
	"context"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/spec"
)

// FleetSpec derives the fleet-wide sweep identity from an engine
// configuration: the resolved op and kernel names plus exactly the
// options TestgenKey folds into the cache address, normalized the same
// way, so every server resolving the same request computes the same Key.
func FleetSpec(sp spec.Spec, cfg Config) FleetSweepSpec {
	fs := FleetSweepSpec{
		Spec:            sp.Name(),
		LowestFD:        cfg.Analyzer.Config.LowestFD,
		TestgenLowestFD: cfg.Testgen.LowestFD,
		MaxPaths:        cfg.Analyzer.MaxPaths,
		MaxTestsPerPath: cfg.Testgen.MaxTestsPerPath,
	}
	for _, op := range cfg.Ops {
		fs.Ops = append(fs.Ops, op.Name)
	}
	for _, ks := range cfg.Kernels {
		fs.Kernels = append(fs.Kernels, ks.Name)
	}
	return fs
}

// fleetWorkerSeq distinguishes concurrent RunFleet calls in one process.
var fleetWorkerSeq atomic.Int64

func fleetWorkerName(cfg Config) string {
	if cfg.FleetWorker != "" {
		return cfg.FleetWorker
	}
	host, _ := os.Hostname()
	if host == "" {
		host = "worker"
	}
	return fmt.Sprintf("%s-%d-%d", host, os.Getpid(), fleetWorkerSeq.Add(1))
}

// fleetPoll is the idle claim cadence: how often a worker with nothing
// granted re-asks the coordinator (which doubles as lease renewal while
// its executors grind through long pairs). Orders of magnitude under the
// lease TTL, so renewal can miss many beats before anything is stolen.
const fleetPoll = 100 * time.Millisecond

// RunFleet executes one sweep as a fleet member: instead of running the
// full pair list the way RunContext does, it pulls pair leases from the
// coordinator behind fc, executes them through the ordinary runPair path
// (same cache and coalescing machinery), posts each finished
// PairResult back, and repeats until the coordinator reports the sweep
// complete fleet-wide — then assembles the merged Result from the
// coordinator's table (local pairs keep their locally-observed timings).
// The returned matrix is byte-identical to a single-server RunContext of
// the same Config: cells are deterministic and the merge re-sorts pairs
// exactly like RunContext does.
//
// Work stealing is coordinator-side (expired leases re-issued to whoever
// still claims), so a worker needs no peer knowledge: when the pending
// queue is dry it polls, and either picks up stolen tail work or learns
// the sweep is done. On cancellation every lease still held is released
// back to the pending queue on a short background context — a killed
// worker's share is re-issued immediately instead of after TTL expiry.
func RunFleet(ctx context.Context, cfg Config, fc FleetClient) (*Result, error) {
	if cfg.Analyzer.Solver != nil || cfg.Testgen.Solver != nil {
		return nil, fmt.Errorf("sweep: fleet mode cannot share caller-provided solvers across servers")
	}
	r, err := newRun(cfg)
	if err != nil {
		return nil, err
	}
	defer r.close()
	sp, workers := r.sp, r.workers
	fspec := FleetSpec(sp, cfg)
	wid := fleetWorkerName(cfg)

	// The lease names the pair; resolve it back to ops through the same
	// enumeration that produced the coordinator's work list.
	byName := make(map[string][2]*spec.Op)
	for _, j := range Pairs(cfg.Ops) {
		byName[j[0].Name+"/"+j[1].Name] = j
	}

	// Executors run under ectx so one pair's failure (or the caller's
	// cancellation) stops the rest promptly; held leases survive the
	// teardown and are released below.
	ectx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		mu        sync.Mutex
		held      = map[string]string{} // lease id -> pair name
		executed  = map[string]PairResult{}
		runErr    error
		fleetDone bool
		emitDone  int // monotone fleet-wide progress already emitted
	)
	fail := func(err error) {
		mu.Lock()
		if runErr == nil {
			runErr = err
		}
		mu.Unlock()
		cancel()
	}

	// Buffered beyond the claim-ahead window (2×workers), so feeding
	// granted leases never blocks the claim loop.
	leaseCh := make(chan FleetLease, 4*workers+16)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for l := range leaseCh {
				if ectx.Err() != nil {
					continue // drain; the lease stays held and is released in teardown
				}
				ops, ok := byName[l.Pair]
				if !ok {
					fail(fmt.Errorf("sweep fleet: coordinator leased unknown pair %q", l.Pair))
					continue
				}
				pr, err := r.runPair(ectx, ops[0], ops[1])
				if err != nil {
					if ectx.Err() == nil {
						fail(err)
					}
					continue
				}
				metricFleetPairsExecuted.Inc()
				tgKey := TestgenKey(sp.Name(), ops[0].Name, ops[1].Name, cfg.Analyzer, cfg.Testgen)
				resp, rerr := fc.Report(ectx, FleetResultRequest{
					Version: FleetAPIVersion,
					Worker:  wid,
					Sweep:   fspec,
					Results: []FleetPairDone{{Lease: l.ID, Pair: pr, TestgenKey: tgKey}},
				})
				if rerr != nil {
					if ectx.Err() == nil {
						fail(fmt.Errorf("sweep fleet: report %s: %w", l.Pair, rerr))
					}
					continue
				}

				mu.Lock()
				executed[l.Pair] = pr
				delete(held, l.ID)
				if resp.Done {
					fleetDone = true
				}
				// Done is the fleet-wide completion count; peers complete
				// pairs concurrently, so only emit forward progress.
				if resp.Completed > emitDone {
					emitDone = resp.Completed
					r.progress(&pr, resp.Completed, resp.Total)
				}
				mu.Unlock()
			}
		}()
	}

	// The claim loop: keep up to 2×workers leases in flight, renew what
	// is held on every round, and poll when nothing was granted (peers
	// hold the remainder, or our own executors are still grinding).
	claimFails := 0
	for {
		mu.Lock()
		done, err := fleetDone, runErr
		renew := make([]string, 0, len(held))
		for id := range held {
			renew = append(renew, id)
		}
		mu.Unlock()
		if done || err != nil || ctx.Err() != nil {
			break
		}
		want := 2*workers - len(renew)
		if want < 0 {
			want = 0
		}
		resp, cerr := fc.Claim(ctx, FleetClaimRequest{
			Version: FleetAPIVersion,
			Worker:  wid,
			Max:     want,
			Sweep:   fspec,
			Renew:   renew,
		})
		if cerr != nil {
			if ctx.Err() != nil {
				break
			}
			// Transient coordinator trouble must not kill the sweep — but
			// a coordinator that stays dead must not hang it either.
			if claimFails++; claimFails >= 8 {
				fail(fmt.Errorf("sweep fleet: claim: %w", cerr))
				break
			}
			if !sleepCtx(ctx, time.Duration(claimFails)*fleetPoll) {
				break
			}
			continue
		}
		claimFails = 0
		mu.Lock()
		if resp.Done {
			fleetDone = true
		}
		for _, l := range resp.Leases {
			held[l.ID] = l.Pair
		}
		mu.Unlock()
		if resp.Done {
			break
		}
		for _, l := range resp.Leases {
			leaseCh <- l
		}
		if len(resp.Leases) == 0 {
			if !sleepCtx(ctx, fleetPoll) {
				break
			}
		}
	}
	close(leaseCh)
	wg.Wait()

	// Requeue-on-cancel: leases still held (never executed, or executed
	// but unreported) go back to the pending queue now, on a context that
	// survives the caller's cancellation, so a peer picks them up without
	// waiting out the TTL. Best-effort — expiry remains the backstop.
	mu.Lock()
	release := make([]string, 0, len(held))
	for id := range held {
		release = append(release, id)
	}
	err = runErr
	mu.Unlock()
	if len(release) > 0 {
		rctx, rcancel := context.WithTimeout(context.WithoutCancel(ctx), 3*time.Second)
		fc.Claim(rctx, FleetClaimRequest{
			Version: FleetAPIVersion,
			Worker:  wid,
			Max:     0,
			Sweep:   fspec,
			Release: release,
		})
		rcancel()
	}

	if cerr := ctx.Err(); cerr != nil {
		return nil, cerr
	}
	if err != nil {
		return nil, err
	}

	// Assemble the merged matrix from the coordinator's table, preferring
	// the local copy of pairs this worker executed (it carries this run's
	// phase timings; the cells are identical by determinism).
	st, serr := fc.Status(ctx, fspec, true)
	if serr != nil {
		return nil, fmt.Errorf("sweep fleet: status: %w", serr)
	}
	if !st.Done || len(st.Results) != st.Total {
		return nil, fmt.Errorf("sweep fleet: coordinator reports %d/%d pairs complete after done signal", st.Completed, st.Total)
	}
	merged := make([]PairResult, 0, len(st.Results))
	for _, pr := range st.Results {
		if local, ok := executed[pr.Pair()]; ok {
			merged = append(merged, local)
		} else {
			merged = append(merged, pr)
		}
	}
	return r.result(merged), nil
}

// sleepCtx sleeps d or until ctx ends; false means the context ended.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}
