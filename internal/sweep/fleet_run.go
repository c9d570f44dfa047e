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
		TestgenLowestFD: cfg.Analyzer.Config.LowestFD,
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
// coordinator behind fc, feeds them to the same executor (same runPair,
// cache and coalescing machinery), posts each finished PairResult back,
// and repeats until the coordinator reports the sweep complete fleet-wide
// — then returns the coordinator's table as the merged Result. The
// returned matrix is byte-identical to a single-server RunContext of the
// same Config: cells are deterministic and the merge re-sorts pairs
// exactly like RunContext does.
//
// Work stealing is coordinator-side (expired leases re-issued to whoever
// still claims), so a worker needs no peer knowledge: when the pending
// queue is dry it polls, and either picks up stolen tail work or learns
// the sweep is done. On cancellation every lease still held is released
// back to the pending queue on a short background context — a killed
// worker's share is re-issued immediately instead of after TTL expiry.
func RunFleet(ctx context.Context, cfg Config, fc FleetClient) (*Result, error) {
	r, err := newRun(ctx, cfg)
	if err != nil {
		return nil, err
	}
	defer r.close()
	fspec := FleetSpec(r.sp, cfg)
	wid := fleetWorkerName(cfg)

	// The lease names the pair; resolve it back to ops through the same
	// enumeration that produced the coordinator's work list.
	byName := make(map[string][2]*spec.Op)
	for _, j := range Pairs(cfg.Ops) {
		byName[j[0].Name+"/"+j[1].Name] = j
	}

	var (
		mu        sync.Mutex
		held      = map[string]string{} // lease id -> pair name
		fleetDone bool
		emitDone  int // monotone fleet-wide progress already emitted
	)
	// The claim loop below holds at most 2×workers leases, so a queue of
	// that size never blocks it: leases keep being renewed while the
	// workers grind through long pairs.
	ex := r.startExecutor(ctx, 2*r.workers, func(ectx context.Context, j pairJob, pr PairResult) error {
		metricFleetPairsExecuted.Inc()
		resp, err := fc.Report(ectx, FleetResultRequest{
			Version: FleetAPIVersion,
			Worker:  wid,
			Sweep:   fspec,
			Results: []FleetPairDone{{Lease: j.id, Pair: pr}},
		})
		if err != nil {
			return fmt.Errorf("sweep fleet: report %s: %w", pr.Pair(), err)
		}
		mu.Lock()
		defer mu.Unlock()
		delete(held, j.id)
		if resp.Done {
			fleetDone = true
		}
		// Completed is the fleet-wide completion count; peers complete
		// pairs concurrently, so only emit forward progress.
		if resp.Completed > emitDone {
			emitDone = resp.Completed
			r.progress(&pr, resp.Completed, resp.Total)
		}
		return nil
	})

	// The claim loop: keep up to 2×workers leases in flight, renew what
	// is held on every round, and poll when nothing was granted (peers
	// hold the remainder, or our own workers are still grinding). It runs
	// under the executor's context, so a failed pair ends it promptly;
	// held leases survive the teardown and are released below.
	claimFails := 0
claim:
	for ex.ctx.Err() == nil {
		mu.Lock()
		done := fleetDone
		renew := make([]string, 0, len(held))
		for id := range held {
			renew = append(renew, id)
		}
		mu.Unlock()
		if done {
			break
		}
		resp, cerr := fc.Claim(ex.ctx, FleetClaimRequest{
			Version: FleetAPIVersion,
			Worker:  wid,
			Max:     max(2*r.workers-len(renew), 0),
			Sweep:   fspec,
			Renew:   renew,
		})
		if cerr != nil {
			// Transient coordinator trouble must not kill the sweep — but
			// a coordinator that stays dead must not hang it either.
			if claimFails++; claimFails >= 8 {
				ex.cancel(fmt.Errorf("sweep fleet: claim: %w", cerr))
			}
			sleepCtx(ex.ctx, time.Duration(claimFails)*fleetPoll)
			continue
		}
		claimFails = 0
		if resp.Done {
			break
		}
		mu.Lock()
		for _, l := range resp.Leases {
			held[l.ID] = l.Pair
		}
		mu.Unlock()
		for _, l := range resp.Leases {
			ops, ok := byName[l.Pair]
			if !ok {
				ex.cancel(fmt.Errorf("sweep fleet: coordinator leased unknown pair %q", l.Pair))
				break claim
			}
			if !ex.submit(pairJob{a: ops[0], b: ops[1], id: l.ID}) {
				break claim
			}
		}
		if len(resp.Leases) == 0 {
			sleepCtx(ex.ctx, fleetPoll)
		}
	}
	err = ex.wait()

	// Requeue-on-cancel: leases still held (never executed, or executed
	// but unreported) go back to the pending queue now, on a context that
	// survives the caller's cancellation, so a peer picks them up without
	// waiting out the TTL. Best-effort — expiry remains the backstop.
	if len(held) > 0 {
		release := make([]string, 0, len(held))
		for id := range held {
			release = append(release, id)
		}
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
	if err != nil {
		return nil, err
	}

	st, serr := fc.Status(ctx, fspec, true)
	if serr != nil {
		return nil, fmt.Errorf("sweep fleet: status: %w", serr)
	}
	if !st.Done || len(st.Results) != st.Total {
		return nil, fmt.Errorf("sweep fleet: coordinator reports %d/%d pairs complete after done signal", st.Completed, st.Total)
	}
	return r.result(st.Results), nil
}

// sleepCtx sleeps d or until ctx ends.
func sleepCtx(ctx context.Context, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}
