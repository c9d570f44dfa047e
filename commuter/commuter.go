// Package commuter is the public API of the COMMUTER toolchain (§5 of "The
// Scalable Commutativity Rule", SOSP 2013): ANALYZER computes the
// conditions under which modeled POSIX operations commute, TESTGEN turns
// those conditions into concrete test cases with conflict coverage, and the
// MTRACE-style checker decides whether a kernel implementation is
// conflict-free — and hence scalable on MESI-like hardware — for each test.
//
// The pipeline lives behind the Client interface, which has two
// interchangeable bindings: Local() runs it in-process, Dial(url) runs it
// on a `commuter serve` instance over a versioned JSON protocol. The
// typical pipeline:
//
//	cli := commuter.Local() // or commuter.Dial("http://sweephost:8372")
//	analysis, err := cli.Analyze(ctx, "rename", "rename")
//	ts, err := cli.GenerateTests(ctx, "rename", "rename")
//	sum, err := cli.Check(ctx, "sv6", ts.Tests)
//	fmt.Println(sum.Conflicts, "of", sum.Total, "tests conflicted")
//
// Sweeps stream per-pair results as they finish:
//
//	for upd, err := range cli.SweepStream(ctx, commuter.WithOpSet("fs")) {
//		...
//	}
//
// Package commuter also renders a sweep as the paper's Figure 6 matrices
// (MatricesFromSweep, FormatMatrix). The Figure 7 throughput curves are not
// part of this API: they run on the coherence simulator, not the pipeline,
// and cmd/scalebench prints them.
package commuter

import (
	"io"

	"repro/internal/kernel"
	_ "repro/internal/kvspec"    // registers the "kv" spec
	_ "repro/internal/queuespec" // registers the "queue" spec
	"repro/internal/spec"
	"repro/internal/sweep"    // imports model, which registers the "posix" spec
	_ "repro/internal/vmspec" // registers the "vm" spec
)

// Re-exported core types. See the internal packages for full documentation.
type (
	// TestCase is one concrete commutative test.
	TestCase = kernel.TestCase

	// SweepResult is a completed sweep.
	SweepResult = sweep.Result
	// SweepPair is the sweep outcome for one operation pair.
	SweepPair = sweep.PairResult
	// SweepBackend is the pluggable two-tier sweep cache interface
	// (generated tests in a kernel-independent TESTGEN tier, per-kernel
	// cells in a CHECK tier) WithCacheBackend and ServeWithBackend take;
	// WithCache and ServeWithCache open one from its string form.
	SweepBackend = sweep.Backend
	// SweepCacheStats counts per-tier cache hits and misses.
	SweepCacheStats = sweep.CacheStats
)

// Specs returns the names of the registered interface specifications,
// sorted: "kv", "posix", "queue" and "vm", plus any the embedding program
// registered.
func Specs() []string { return spec.Names() }

// WriteSweepTrace renders a finished sweep as a Chrome trace-event file
// (loadable in chrome://tracing or ui.perfetto.dev): one span per pair at
// its recorded start offset with the analyze/testgen/check phases nested
// inside, packed onto lanes that reconstruct the worker schedule.
func WriteSweepTrace(w io.Writer, res *SweepResult) error { return sweep.WriteTrace(w, res) }
