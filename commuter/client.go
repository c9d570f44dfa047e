package commuter

import (
	"context"
	"errors"
	"iter"
	"strings"

	"repro/internal/api"
	"repro/internal/sweep"
)

// Client is the façade over the COMMUTER pipeline: ANALYZE, TESTGEN,
// CHECK and the parallel sweep behind one interface that is explicitly a
// contract, not a binding. Every method takes a context.Context —
// cancellation reaches all the way into the solver's backtracking search —
// returns errors instead of panicking, accepts functional options, and
// speaks in plain data (names, test cases, cells) rather than symbolic
// state, which is what lets two very different implementations satisfy it:
//
//   - Local() runs the pipeline in-process, and
//   - Dial(url) speaks the versioned JSON wire format (internal/api) to a
//     `commuter serve` instance, streaming sweeps as NDJSON.
//
// Code written against Client runs identically over either binding; the
// CLI's -server flag is nothing but a swap of constructors.
type Client interface {
	// Specs enumerates the interface specifications the implementation
	// can analyze, with their operations, named subsets and
	// implementation bindings.
	Specs(ctx context.Context) ([]SpecInfo, error)

	// Analyze computes the commutativity conditions of one operation
	// pair of the selected spec (WithSpec; default posix). Unknown spec
	// or op names error with the known alternatives listed.
	Analyze(ctx context.Context, opA, opB string, opts ...Option) (Analysis, error)

	// GenerateTests runs ANALYZE + TESTGEN for one pair and returns the
	// concrete test cases. A nonzero TestSet.Unknown means the solver
	// budget truncated the set (a lower bound, not a proof).
	GenerateTests(ctx context.Context, opA, opB string, opts ...Option) (TestSet, error)

	// Check runs concrete tests against one named implementation of the
	// selected spec and reports per-test conflict-freedom verdicts plus
	// the aggregate Figure 6 cell counts; Verdicts[i] is tests[i]'s. A
	// test naming an op the spec does not have, or one kernel.Admit
	// refuses, is a bad request.
	Check(ctx context.Context, kernel string, tests []TestCase, opts ...Option) (CheckSummary, error)

	// Sweep fans ANALYZE → TESTGEN → CHECK across every unordered pair
	// of the selected operation universe (WithOps/WithOpSet) and kernels
	// (WithKernels), optionally caching per-pair results (WithCache for
	// Local; the serving side's cache for Dial).
	Sweep(ctx context.Context, opts ...Option) (*SweepResult, error)

	// SweepStream is Sweep with streaming: it yields one update per
	// finished pair as it completes (Progress and Pair set), then a final
	// update carrying the Result. Iteration stops on the first non-nil
	// error; breaking out of the loop early cancels the sweep.
	SweepStream(ctx context.Context, opts ...Option) iter.Seq2[SweepUpdate, error]

	// Close releases resources held by the binding (idle connections for
	// Dial; a no-op for Local).
	Close() error
}

// Re-exported result types of the Client API. They are the wire types: plain
// data, identical through either binding.
type (
	// SpecInfo describes one registered interface specification.
	SpecInfo = api.SpecInfo
	// Analysis summarizes one pair's commutativity analysis.
	Analysis = api.Analysis
	// TestSet is one pair's generated concrete tests.
	TestSet = api.TestSet
	// CheckSummary aggregates per-test verdicts on one kernel.
	CheckSummary = api.CheckSummary
	// TestVerdict is one test's conflict-freedom verdict.
	TestVerdict = api.TestVerdict
	// SweepProgress is where a sweep stands when one of its pairs
	// finishes: pairs done of the total, and the sweep's wall time so far.
	SweepProgress = api.Progress
)

// SweepUpdate is one element of a sweep stream. Exactly one of the
// terminal fields is set on the last update (Result); every earlier
// update carries the finished pair (Pair) and where the sweep stood when
// it finished (Progress).
type SweepUpdate struct {
	// Progress counts the pairs done of the total and the sweep's wall
	// time so far, nil on the terminal update. Everything about the pair
	// itself is Pair.
	Progress *SweepProgress
	// Pair is the finished pair's full result, nil on the terminal
	// update.
	Pair *SweepPair
	// Result is the completed sweep, set only on the terminal update.
	Result *SweepResult
}

// Option is a functional option accepted by every Client method; each
// method reads the fields relevant to it and ignores the rest.
type Option func(*callOptions)

// callOptions is the wire options (what a Dial client sends verbatim) plus
// the settings that belong to the executing side alone.
type callOptions struct {
	api.Options
	cacheDir string
	cache    sweep.Backend
	fleet    string
}

// WithSpec selects the interface specification to analyze ("posix" when
// not given; "queue" is the mail pipeline's communication interface).
func WithSpec(name string) Option { return func(o *callOptions) { o.Spec = name } }

// WithLowestFD models POSIX's lowest-FD allocation rule instead of the
// O_ANYFD specification nondeterminism (§4 of the paper).
func WithLowestFD(on bool) Option { return func(o *callOptions) { o.LowestFD = on } }

// WithTestsPerPath caps the isomorphism classes enumerated per
// commutative path (zero means testgen.DefaultMaxTestsPerPath).
func WithTestsPerPath(n int) Option { return func(o *callOptions) { o.MaxTestsPerPath = n } }

// WithWorkers sizes the sweep worker pool (default: one per CPU of the
// executing side).
func WithWorkers(n int) Option { return func(o *callOptions) { o.Workers = n } }

// WithCache enables the two-tier sweep cache described by spec: a bare
// path or "dir:PATH" for the on-disk backend, "mem[:N]" for a bounded
// in-memory LRU, an http(s) URL for a peer `commuter serve` instance's
// shared cache, or a comma list layering tiers fastest-first (see
// sweep.OpenBackend). It applies to Local clients; a Dial client rejects
// it — the serving side's cache is configured by `commuter serve -cache`.
func WithCache(spec string) Option { return func(o *callOptions) { o.cacheDir = spec } }

// WithCacheBackend injects an already-open cache backend, sharing one
// handle across calls; the serve endpoint uses it to put the process-wide
// cache behind every request.
func WithCacheBackend(b SweepBackend) Option { return func(o *callOptions) { o.cache = b } }

// WithFleet makes Sweep a fleet member coordinated by the `commuter
// serve` instance at coordinatorURL: the sweep claims pair leases from
// the coordinator, executes only those, and merges the fleet-wide
// matrix — N processes sweeping with the same options and coordinator
// compute every pair exactly once between them, and each returns the
// identical complete result. It applies to Local clients (a server
// joins a fleet via `commuter serve -fleet`); a Dial client rejects it.
func WithFleet(coordinatorURL string) Option {
	return func(o *callOptions) { o.fleet = coordinatorURL }
}

// WithOps selects an explicit operation universe for Sweep by name.
func WithOps(names ...string) Option {
	return func(o *callOptions) { o.Ops = strings.Join(names, ",") }
}

// WithOpSet selects the operation universe with the CLI's selector
// syntax: "all", a spec-named subset ("fs"), or a comma list. The default
// is the spec's own default set.
func WithOpSet(sel string) Option { return func(o *callOptions) { o.Ops = sel } }

// WithKernels names the implementations Sweep checks (default: all of
// the spec's implementations). Unknown names error with the known
// implementations listed.
func WithKernels(names ...string) Option {
	return func(o *callOptions) { o.Kernels = append([]string(nil), names...) }
}

func buildOptions(opts []Option) callOptions {
	var o callOptions
	for _, f := range opts {
		f(&o)
	}
	return o
}

// withWire sets every wire option at once — the serve endpoint's half of
// the round trip.
func withWire(w api.Options) Option { return func(o *callOptions) { o.Options = w } }

// IsBadRequest reports whether err is a caller mistake — an unknown spec,
// op or kernel name, a malformed request, a test to Check that no kernel
// may be handed — rather than a pipeline failure.
func IsBadRequest(err error) bool {
	var ae *api.Error
	return errors.As(err, &ae) && ae.Code == api.CodeBadRequest
}

// badRequest tags an error — a name that does not resolve, a test refused
// admission — as a caller mistake, so the serve endpoint can map it to a
// 400 and a remote caller sees the same message a local caller would.
func badRequest(err error) error {
	var ae *api.Error
	if errors.As(err, &ae) {
		return ae
	}
	return &api.Error{Code: api.CodeBadRequest, Message: err.Error()}
}

// drainSweep runs a sweep stream to completion and returns its terminal
// result; both bindings implement Sweep with it.
func drainSweep(stream iter.Seq2[SweepUpdate, error]) (*SweepResult, error) {
	var res *SweepResult
	for upd, err := range stream {
		if err != nil {
			return nil, err
		}
		if upd.Result != nil {
			res = upd.Result
		}
	}
	if res == nil {
		return nil, errors.New("commuter: sweep stream ended without a result")
	}
	return res, nil
}
