package commuter

import (
	"context"
	"errors"
	"fmt"
	"iter"

	"repro/internal/analyzer"
	"repro/internal/api"
	"repro/internal/kernel"
	"repro/internal/spec"
	"repro/internal/sweep"
)

// Local returns the in-process binding of the Client interface. It is
// stateless and safe for concurrent use; per-call caches are opened on
// demand (use Sweep's WithCache, or host one shared cache behind
// NewServerHandler).
func Local() Client { return localClient{} }

type localClient struct{}

func (localClient) Close() error { return nil }

func (localClient) Specs(ctx context.Context) ([]SpecInfo, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var out []SpecInfo
	for _, name := range spec.Names() {
		sp, err := spec.Lookup(name)
		if err != nil {
			return nil, err // Names lists only registered specs
		}
		info := SpecInfo{
			Name:       name,
			Ops:        spec.OpNames(sp),
			Sets:       sp.Sets(),
			DefaultSet: sp.DefaultSet(),
		}
		for _, im := range sp.Impls() {
			info.Impls = append(info.Impls, im.Name)
		}
		out = append(out, info)
	}
	return out, nil
}

// spec resolves the selected spec ("posix" when not given), tagging an
// unknown name as a bad request. Every local call resolves its options
// here, and so every served one: a cap below zero is a bad request too,
// since zero means the default and a negative cap would cut a test set
// short with nothing marking it incomplete.
func (o *callOptions) spec() (spec.Spec, error) {
	if o.MaxTestsPerPath < 0 {
		return nil, badRequest(fmt.Errorf("a cap below 0: max_tests_per_path %d (0 means the default)", o.MaxTestsPerPath))
	}
	name := o.Spec
	if name == "" {
		name = "posix"
	}
	sp, err := spec.Lookup(name)
	if err != nil {
		return nil, badRequest(err)
	}
	return sp, nil
}

// resolvePair resolves the spec and both operation names, tagging unknown
// names as bad requests.
func resolvePair(o *callOptions, opA, opB string) (spec.Spec, *spec.Op, *spec.Op, error) {
	sp, err := o.spec()
	if err != nil {
		return nil, nil, nil, err
	}
	a, err := spec.OpByName(sp, opA)
	if err != nil {
		return nil, nil, nil, badRequest(err)
	}
	b, err := spec.OpByName(sp, opB)
	if err != nil {
		return nil, nil, nil, badRequest(err)
	}
	return sp, a, b, nil
}

// shape is the options' test shape as the engine reads it; its
// PhaseOptions are the ANALYZE and TESTGEN options of every binding.
func (o *callOptions) shape() sweep.Config {
	return sweep.Config{LowestFD: o.LowestFD, MaxTestsPerPath: o.MaxTestsPerPath}
}

func (localClient) Analyze(ctx context.Context, opA, opB string, opts ...Option) (Analysis, error) {
	o := buildOptions(opts)
	sp, a, b, err := resolvePair(&o, opA, opB)
	if err != nil {
		return Analysis{}, err
	}
	aOpt, _ := o.shape().PhaseOptions()
	pr, err := analyzer.AnalyzePairCtx(ctx, sp, a, b, aOpt)
	if err != nil {
		return Analysis{}, err
	}
	an := analysisFrom(ctx, pr)
	if err := ctx.Err(); err != nil {
		// The description's searches were cut short: its clauses are not
		// the pair's.
		return Analysis{}, err
	}
	return an, nil
}

// analysisFrom flattens a symbolic pair analysis into its plain-data wire
// form: counts, §5.1-style clauses, and rendered per-path conditions. The
// order-dependence verdict is this report's alone, so it is decided here;
// a truncated divergence search makes its path unknown like a truncated
// commute search does.
func analysisFrom(ctx context.Context, r analyzer.PairResult) Analysis {
	a := Analysis{
		Spec:    r.Spec,
		OpA:     r.OpA,
		OpB:     r.OpB,
		Paths:   len(r.Paths),
		Unknown: r.Unknown(),
		Clauses: analyzer.Describe(ctx, r),
	}
	diverges, unknown := analyzer.CanDiverge(ctx, r)
	for i, p := range r.Paths {
		if p.Commutes {
			a.Commutative++
		}
		if diverges[i] {
			a.OrderDependent++
		}
		if unknown[i] && !p.Unknown {
			a.Unknown++
		}
		a.PathDetails = append(a.PathDetails, api.PathSummary{
			Condition:  p.CommuteCond().String(),
			Commutes:   p.Commutes,
			CanDiverge: diverges[i],
			Unknown:    p.Unknown || unknown[i],
		})
	}
	return a
}

func (localClient) GenerateTests(ctx context.Context, opA, opB string, opts ...Option) (TestSet, error) {
	o := buildOptions(opts)
	sp, a, b, err := resolvePair(&o, opA, opB)
	if err != nil {
		return TestSet{}, err
	}
	// The engine's own ANALYZE → TESTGEN sequence, outside a sweep: no
	// cache, no single-flight, and the timing record is dropped.
	aOpt, gOpt := o.shape().PhaseOptions()
	tests, unknown, err := sweep.PairTests(ctx, sp, a, b, aOpt, gOpt, new(sweep.PairResult))
	if err != nil {
		return TestSet{}, err
	}
	return TestSet{Spec: sp.Name(), OpA: a.Name, OpB: b.Name, Tests: tests, Unknown: unknown}, nil
}

func (localClient) Check(ctx context.Context, kernelName string, tests []TestCase, opts ...Option) (CheckSummary, error) {
	o := buildOptions(opts)
	sp, err := o.spec()
	if err != nil {
		return CheckSummary{}, err
	}
	impls, err := spec.ImplSet(sp, kernelName)
	if err != nil {
		return CheckSummary{}, badRequest(err)
	}
	out := CheckSummary{Kernel: impls[0].Name, Verdicts: make([]TestVerdict, len(tests))}
	// The replay loop groups tests by initial state, which reorders
	// execution; verdicts are stored by original index to keep the response
	// aligned with the request.
	_, err = kernel.NewReplayer(impls[0].New).CheckTests(ctx, tests, func(i int, res kernel.CheckResult) {
		v := TestVerdict{TestID: tests[i].ID, ConflictFree: res.ConflictFree}
		for _, c := range res.Conflicts {
			v.Conflicts = append(v.Conflicts, c.CellName)
		}
		out.Total++
		if !res.ConflictFree {
			out.Conflicts++
		}
		out.Verdicts[i] = v
	})
	if errors.Is(err, kernel.ErrInadmissible) {
		return CheckSummary{}, badRequest(err)
	}
	if err != nil {
		return CheckSummary{}, err
	}
	return out, nil
}

// sweepConfig resolves the options into an engine configuration, opening
// the cache backend the options name.
func (o *callOptions) sweepConfig() (sweep.Config, error) {
	sp, err := o.spec()
	if err != nil {
		return sweep.Config{}, err
	}
	sel := o.Ops
	if sel == "" {
		sel = sp.DefaultSet()
	}
	ops, err := spec.OpSet(sp, sel)
	if err != nil {
		return sweep.Config{}, badRequest(err)
	}
	kernels, err := spec.ImplSet(sp, o.Kernels...)
	if err != nil {
		return sweep.Config{}, badRequest(err)
	}
	cfg := o.shape()
	cfg.Spec, cfg.Ops, cfg.Kernels = sp, ops, kernels
	cfg.Workers, cfg.Cache = o.Workers, o.cache
	if cfg.Cache == nil && o.cacheDir != "" {
		if cfg.Cache, err = sweep.OpenBackend(o.cacheDir); err != nil {
			return sweep.Config{}, err
		}
	}
	return cfg, nil
}

func (c localClient) Sweep(ctx context.Context, opts ...Option) (*SweepResult, error) {
	return drainSweep(c.SweepStream(ctx, opts...))
}

func (localClient) SweepStream(ctx context.Context, opts ...Option) iter.Seq2[SweepUpdate, error] {
	return func(yield func(SweepUpdate, error) bool) {
		o := buildOptions(opts)
		cfg, err := o.sweepConfig()
		if err != nil {
			yield(SweepUpdate{}, err)
			return
		}
		var fc sweep.FleetClient
		if o.fleet != "" {
			if fc, err = sweep.NewHTTPFleetClient(o.fleet); err != nil {
				yield(SweepUpdate{}, badRequest(err))
				return
			}
		}

		// The engine pushes events from worker goroutines; the iterator
		// pulls. A channel bridges the two, and an own cancel scope makes
		// "consumer stopped iterating" look like cancellation to the
		// engine, so its workers wind down and the bridging goroutine
		// always terminates.
		sctx, cancel := context.WithCancel(ctx)
		defer cancel()
		updates := make(chan SweepUpdate)
		var (
			res    *sweep.Result
			runErr error
		)
		cfg.Progress = func(ev sweep.Event) {
			upd := SweepUpdate{Pair: ev.Result, Progress: api.ProgressFromEvent(ev)}
			select {
			case updates <- upd:
			case <-sctx.Done():
			}
		}
		go func() {
			defer close(updates)
			if fc != nil {
				res, runErr = sweep.RunFleet(sctx, cfg, fc)
			} else {
				res, runErr = sweep.RunContext(sctx, cfg)
			}
		}()

		for upd := range updates {
			if !yield(upd, nil) {
				cancel()
				for range updates { // wait out the engine's shutdown
				}
				return
			}
		}
		if runErr != nil {
			yield(SweepUpdate{}, runErr)
			return
		}
		yield(SweepUpdate{Result: res}, nil)
	}
}
