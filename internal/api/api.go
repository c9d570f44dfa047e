// Package api defines the COMMUTER toolchain's versioned JSON wire
// format: the interface contract between a commuter.Client and a
// `commuter serve` instance. The pipeline itself is model-agnostic, and
// so is the wire format — every payload speaks in plain names
// (spec/op/kernel strings) and plain data (kernel.TestCase, whose setup is
// keyed by its spec's name, and per-pair sweep results), never in symbolic
// expressions or function values, which is exactly what makes the local
// and remote bindings of the Client interface interchangeable.
//
// Versioning contract: Version stamps every request, and the server
// rejects mismatches outright (CodeVersionMismatch) rather than guessing
// at field semantics. The encodings of every request, response and stream
// frame are pinned byte-for-byte by golden files in testdata/ — a change
// that moves any of them must bump Version deliberately, as a change to
// the sweep cache's key shape or entry encoding bumps CacheVersion.
//
// Sweeps stream: the response to PathSweep is NDJSON, one Frame per line
// — progress/pair updates as they complete, then exactly one terminal
// "result" or "error" frame.
package api

import (
	"fmt"
	"time"

	"repro/internal/kernel"
	"repro/internal/sweep"
)

// Version is the wire-format version. Bump it whenever any encoding in
// this package (or the JSON shape of the internal types it embeds —
// kernel.TestCase, sweep.PairResult) changes incompatibly. Version 4 is
// the first whose tests carry their setup under their spec's name
// ({"posix": {...}}); a version 3 body is refused.
const Version = 4

// Endpoint paths. Their /v1/ prefix names the route family and stays
// across wire versions: a request's version stamp is what the server
// checks (CheckVersion).
const (
	PathSpecs   = "/v1/specs"
	PathAnalyze = "/v1/analyze"
	PathTestgen = "/v1/testgen"
	PathCheck   = "/v1/check"
	PathSweep   = "/v1/sweep"
	PathHealth  = "/healthz"
	// PathMetrics is unversioned: Prometheus exposition carries its own
	// format version in the scrape Content-Type.
	PathMetrics = "/metrics"
	// Fleet coordination routes (defined next to their scheduler in
	// internal/sweep, same layering as the cache route): claim grants
	// batches of pair leases with TTL + piggybacked renew/release, result
	// posts completed PairResults, status reports fleet-wide progress and
	// the merged results.
	PathFleetClaim  = sweep.FleetClaimPath
	PathFleetResult = sweep.FleetResultPath
	PathFleetStatus = sweep.FleetStatusPath
)

// VersionHeader is set on every server response.
const VersionHeader = "Commuter-Api-Version"

// Error codes.
const (
	// CodeBadRequest covers malformed payloads and unknown names (specs,
	// ops, kernels); the message carries the known alternatives, exactly
	// like the local bindings' errors.
	CodeBadRequest = "bad_request"
	// CodeVersionMismatch reports a client speaking another wire version.
	CodeVersionMismatch = "version_mismatch"
	// CodeCanceled reports that the request's context ended server-side.
	CodeCanceled = "canceled"
	// CodeInternal covers everything else; the sweep itself failed.
	CodeInternal = "internal"
)

// Error is the wire form of any failure. It implements error, and the
// remote client returns it as-is, so a remote typo reads exactly like a
// local one ("unknown spec ... (known specs: ...)").
type Error struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

func (e *Error) Error() string { return e.Message }

// Errorf builds a coded wire error.
func Errorf(code, format string, args ...any) *Error {
	return &Error{Code: code, Message: fmt.Sprintf(format, args...)}
}

// Options is the pipeline knob set shared by every request; it mirrors
// the commuter package's functional options. Zero values mean "the
// pipeline default" everywhere.
type Options struct {
	// Spec selects the interface specification ("" means posix).
	Spec string `json:"spec,omitempty"`
	// LowestFD selects POSIX's lowest-FD rule over O_ANYFD.
	LowestFD bool `json:"lowest_fd,omitempty"`
	// MaxTestsPerPath caps isomorphism classes per commutative path.
	MaxTestsPerPath int `json:"max_tests_per_path,omitempty"`
	// Workers sizes the sweep worker pool (0 means the server decides).
	Workers int `json:"workers,omitempty"`
	// Ops selects the operation universe with the CLI's selector syntax:
	// "all", a spec-named subset, or a comma list ("" means the spec's
	// default set).
	Ops string `json:"ops,omitempty"`
	// Kernels names the implementations to check (empty means all of the
	// spec's implementations).
	Kernels []string `json:"kernels,omitempty"`
}

// SpecInfo describes one registered interface specification: everything a
// remote client needs to enumerate what the server can analyze.
type SpecInfo struct {
	Name       string              `json:"name"`
	Ops        []string            `json:"ops"`
	Sets       map[string][]string `json:"sets,omitempty"`
	DefaultSet string              `json:"default_set"`
	Impls      []string            `json:"impls"`
}

// SpecsResponse answers GET PathSpecs.
type SpecsResponse struct {
	Version int        `json:"version"`
	Specs   []SpecInfo `json:"specs"`
}

// AnalyzeRequest asks for the commutativity analysis of one pair.
type AnalyzeRequest struct {
	Version int     `json:"version"`
	OpA     string  `json:"op_a"`
	OpB     string  `json:"op_b"`
	Options Options `json:"options"`
}

// PathSummary is the wire form of one analyzed joint path: the rendered
// commutativity condition plus its classification. Symbolic expressions
// never cross the wire — the rendering is for humans (the CLI's -v mode),
// the flags are the contract.
type PathSummary struct {
	Condition  string `json:"condition"`
	Commutes   bool   `json:"commutes,omitempty"`
	CanDiverge bool   `json:"can_diverge,omitempty"`
	Unknown    bool   `json:"unknown,omitempty"`
}

// Analysis is the wire form of a pair's analysis.
type Analysis struct {
	Spec string `json:"spec"`
	OpA  string `json:"op_a"`
	OpB  string `json:"op_b"`
	// Paths counts feasible joint paths; Commutative and OrderDependent
	// count paths with a satisfiable commute/diverge condition; Unknown
	// counts paths whose classification hit the solver budget.
	Paths          int `json:"paths"`
	Commutative    int `json:"commutative"`
	OrderDependent int `json:"order_dependent"`
	Unknown        int `json:"unknown,omitempty"`
	// Clauses are the §5.1-style human-readable commutative situations.
	Clauses []string `json:"clauses,omitempty"`
	// PathDetails carries one summary per path, in exploration order.
	PathDetails []PathSummary `json:"path_details,omitempty"`
}

// Summary renders the one-line description the CLI prints.
func (a Analysis) Summary() string {
	s := fmt.Sprintf("%s x %s: %d paths, %d commutative, %d order-dependent",
		a.OpA, a.OpB, a.Paths, a.Commutative, a.OrderDependent)
	if a.Unknown > 0 {
		s += fmt.Sprintf(", %d unknown (solver budget exhausted)", a.Unknown)
	}
	return s
}

// TestgenRequest asks for the concrete test cases of one pair.
type TestgenRequest struct {
	Version int     `json:"version"`
	OpA     string  `json:"op_a"`
	OpB     string  `json:"op_b"`
	Options Options `json:"options"`
}

// TestSet is the wire form of a pair's generated tests. kernel.TestCase
// is plain data (ID, Setup, Calls) and JSON-round-trips exactly — the
// same property the sweep cache's TESTGEN tier relies on.
type TestSet struct {
	Spec  string            `json:"spec"`
	OpA   string            `json:"op_a"`
	OpB   string            `json:"op_b"`
	Tests []kernel.TestCase `json:"tests"`
	// Unknown counts paths whose analysis or enumeration hit the solver
	// budget; nonzero means Tests is a lower bound.
	Unknown int `json:"unknown,omitempty"`
}

// CheckRequest asks for conflict-freedom verdicts of concrete tests on
// one named implementation.
type CheckRequest struct {
	Version int               `json:"version"`
	Kernel  string            `json:"kernel"`
	Tests   []kernel.TestCase `json:"tests"`
	Options Options           `json:"options"`
}

// TestVerdict is one test's MTRACE verdict on one kernel.
type TestVerdict struct {
	TestID       string `json:"test_id"`
	ConflictFree bool   `json:"conflict_free"`
	// Conflicts names the shared cells when not conflict-free.
	Conflicts []string `json:"conflicts,omitempty"`
}

// CheckSummary is the wire form of a batch check: the Figure 6 cell
// counts plus per-test verdicts in request order.
type CheckSummary struct {
	Kernel    string        `json:"kernel"`
	Total     int           `json:"total"`
	Conflicts int           `json:"conflicts"`
	Verdicts  []TestVerdict `json:"verdicts"`
}

// SweepRequest asks for a full pipeline sweep; the response is an NDJSON
// Frame stream.
type SweepRequest struct {
	Version int     `json:"version"`
	Options Options `json:"options"`
}

// Frame types.
const (
	// FrameUpdate carries a finished pair and its progress.
	FrameUpdate = "update"
	// FrameResult is the terminal success frame.
	FrameResult = "result"
	// FrameError is the terminal failure frame.
	FrameError = "error"
)

// Frame is one NDJSON line of a sweep stream. The terminal result frame
// deliberately carries the complete SweepResult — including the Pairs
// already streamed one update frame at a time — so it is self-contained:
// consumers may treat update frames as optional progress decoration
// (commuter.Client.Sweep does exactly that) instead of reassembling the
// result themselves. The redundancy is bounded: pairs are cell summaries
// (the test cases never cross the wire at all during a sweep), well under
// 100 KiB even for the full 18-op matrix.
type Frame struct {
	Type     string            `json:"type"`
	Progress *Progress         `json:"progress,omitempty"`
	Pair     *sweep.PairResult `json:"pair,omitempty"`
	Result   *SweepResult      `json:"result,omitempty"`
	Error    *Error            `json:"error,omitempty"`
}

// Progress is what a sweep.Event adds to its pair: the sweep's counters
// and its wall time so far, flattened to milliseconds. Everything else an
// event says is the frame's Pair, which travels beside it.
type Progress struct {
	Done      int     `json:"done"`
	Total     int     `json:"total"`
	ElapsedMS float64 `json:"elapsed_ms"`
}

// ProgressFromEvent converts an engine event to its wire form.
func ProgressFromEvent(ev sweep.Event) *Progress {
	return &Progress{
		Done:      ev.Done,
		Total:     ev.Total,
		ElapsedMS: float64(ev.Elapsed) / float64(time.Millisecond),
	}
}

// CacheStats is the two-tier cache counters; the engine's type carries
// the wire tags.
type CacheStats = sweep.CacheStats

// SweepResult is the wire form of a completed sweep. Pairs reuses
// sweep.PairResult's artifact encoding (op_a/op_b/tests/cells/...), so a
// sweep's wire frames and its JSONL artifact lines agree.
type SweepResult struct {
	Spec    string             `json:"spec"`
	Pairs   []sweep.PairResult `json:"pairs"`
	Workers int                `json:"workers"`
	// ElapsedMS is the server-side wall time.
	ElapsedMS float64 `json:"elapsed_ms"`
	// Cache is nil when the serving side has no cache configured.
	Cache            *CacheStats `json:"cache,omitempty"`
	CacheWriteErrors int         `json:"cache_write_errors,omitempty"`
}

// ResultFromSweep converts an engine result to its wire form. hasCache
// distinguishes "no cache configured" (nil) from "cache saw no traffic"
// (zero stats).
func ResultFromSweep(res *sweep.Result, hasCache bool) *SweepResult {
	out := &SweepResult{
		Spec:             res.Spec,
		Pairs:            res.Pairs,
		Workers:          res.Workers,
		ElapsedMS:        float64(res.Elapsed) / float64(time.Millisecond),
		CacheWriteErrors: res.CacheWriteErrors,
	}
	if hasCache {
		stats := res.Cache
		out.Cache = &stats
	}
	return out
}

// ToSweep converts a wire result back to the engine's result type.
func (r *SweepResult) ToSweep() *sweep.Result {
	out := &sweep.Result{
		Spec:             r.Spec,
		Pairs:            r.Pairs,
		Workers:          r.Workers,
		Elapsed:          time.Duration(r.ElapsedMS * float64(time.Millisecond)),
		CacheWriteErrors: r.CacheWriteErrors,
	}
	if r.Cache != nil {
		out.Cache = *r.Cache
	}
	return out
}

// Fleet wire types, defined in internal/sweep beside the lease table they
// describe (this package imports sweep, not the other way around). The
// request and response bodies a server decodes and encodes are aliased
// here; the golden files pin every fleet encoding with the rest of the
// contract. Fleet requests stamp sweep.FleetAPIVersion, which
// tracks Version (asserted by test).
type (
	// FleetSweepSpec is the fleet-wide identity of one sweep: spec,
	// resolved op/kernel names, and every settable test-shaping option.
	FleetSweepSpec = sweep.FleetSweepSpec
	// FleetClaimRequest asks for pair leases (POST PathFleetClaim), with
	// piggybacked lease renewal and release.
	FleetClaimRequest = sweep.FleetClaimRequest
	// FleetClaimResponse grants leases and reports sweep-wide state.
	FleetClaimResponse = sweep.FleetClaimResponse
	// FleetResultRequest posts completed pairs (POST PathFleetResult).
	FleetResultRequest = sweep.FleetResultRequest
	// FleetResultResponse acknowledges a result post.
	FleetResultResponse = sweep.FleetResultResponse
)

// CheckVersion validates a request's wire version.
func CheckVersion(got int) *Error {
	if got != Version {
		return Errorf(CodeVersionMismatch,
			"wire version %d not supported (server speaks version %d)", got, Version)
	}
	return nil
}
