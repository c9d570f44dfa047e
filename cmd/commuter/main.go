// Command commuter drives the COMMUTER pipeline: it analyzes the
// commutativity of a modeled interface's operation pairs, generates
// concrete test cases from the commutativity conditions, and checks
// implementations for conflict-freedom, regenerating the paper's Figure 6.
//
// Usage:
//
//	commuter analyze -pair rename,rename     # print commutativity conditions
//	commuter testgen -pair rename,rename     # print generated test cases
//	commuter sweep   -ops fs                 # Figure 6 for both kernels
//	commuter sweep   -ops all -kernel sv6    # one kernel, all 18 ops
//	commuter sweep   -ops all -j 8           # parallel, cacheable matrix run
//	commuter sweep   -ops all -cache .sweep  # repeat sweeps are incremental
//	commuter sweep   -spec queue             # second interface: mail queues
//	commuter analyze -spec queue -pair send,send
//	commuter serve   -addr :8372 -cache .sweep   # host sweeps over HTTP
//	commuter sweep   -ops fs -server http://host:8372  # ...and consume them
//
// Every pipeline command runs through the commuter.Client façade and
// takes -server: with no URL the pipeline runs in-process, with one it
// runs on the named `commuter serve` instance over the versioned JSON
// protocol — same flags, same output, different machine. The serve
// subcommand hosts the pipeline (and the shared two-tier result cache)
// for any number of such clients. `commuter matrix` is an alias of
// `commuter sweep`.
//
// Every pipeline command takes -spec, selecting the modeled interface
// specification from the registry (default "posix", the 18 POSIX calls;
// "queue" is the §7.3 mail server's communication interface with its
// memq reference implementation; "vm" is the §5.2 virtual-memory
// interface — mmap/munmap/mprotect/memread/memwrite over per-process
// page mappings, checked on memvm; "kv" is an ordered key-value store —
// get/put/delete/scan, checked on memkv). The scalable commutativity
// rule is about interfaces, not about POSIX — the same ANALYZE → TESTGEN
// → CHECK layers run whichever spec is selected.
//
// The -ops flag selects the operation universe within the spec: "all"
// (every op), a spec-defined named subset (posix's "fs" is the 9
// file-system metadata and descriptor calls — fast; queue has "ordered"
// and "any", vm has "map" and "mem", kv has "point" and "range"), or a
// comma-separated list (deduplicated, first appearance wins). Every
// pipeline command takes -lowestfd to model POSIX's lowest-FD rule
// instead of the O_ANYFD variant, reproducing the lowest-FD column of
// Figure 6.
//
// Sweep fans the pairs across a worker pool (-j, default all CPUs) and can
// persist per-pair results in a cache (-cache locally, `serve -cache`
// remotely), so a rerun recomputes only what changed. Cache keys fold in
// the spec name, so every spec can share one cache directory.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"repro/commuter"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	cmd, args := os.Args[1], os.Args[2:]
	switch cmd {
	case "analyze":
		cmdAnalyze(args)
	case "testgen":
		cmdTestgen(args)
	case "matrix", "sweep":
		cmdSweep(args)
	case "serve":
		cmdServe(args)
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: commuter {analyze|testgen|matrix|sweep|serve} [flags]")
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "commuter:", err)
	// Usage-class failures (unknown specs/ops/kernels, malformed
	// requests) keep their historical exit status 2; pipeline failures
	// exit 1.
	if commuter.IsBadRequest(err) {
		os.Exit(2)
	}
	os.Exit(1)
}

// specFlag registers the -spec flag on a subcommand's flag set.
func specFlag(fs *flag.FlagSet) *string {
	return fs.String("spec", "posix",
		"interface specification to analyze (known: "+strings.Join(commuter.Specs(), ", ")+")")
}

// logFlag registers the -log flag on a subcommand's flag set. The default
// keeps the human-facing output (results on stdout, progress on stderr)
// unpolluted; -log info/debug turns on the engine's structured telemetry.
func logFlag(fs *flag.FlagSet) *string {
	return fs.String("log", "warn", "structured log level: debug, info, warn or error")
}

// setupLogging installs the process-wide structured logger at the given
// level (text lines on stderr) and returns it.
func setupLogging(level string) *slog.Logger {
	var lv slog.Level
	if err := lv.UnmarshalText([]byte(level)); err != nil {
		fmt.Fprintln(os.Stderr, "commuter:", err)
		os.Exit(2)
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: lv}))
	slog.SetDefault(logger)
	return logger
}

// lowestFDFlag registers the -lowestfd flag on a subcommand's flag set.
func lowestFDFlag(fs *flag.FlagSet) *bool {
	return fs.Bool("lowestfd", false, "model POSIX's lowest-FD rule instead of O_ANYFD nondeterminism")
}

// serverFlag registers the -server flag on a subcommand's flag set.
func serverFlag(fs *flag.FlagSet) *string {
	return fs.String("server", "",
		"run the pipeline on this `commuter serve` URL instead of in-process")
}

// newClient builds the pipeline client the subcommand runs against: the
// in-process binding, or the wire binding when -server was given.
func newClient(server string) commuter.Client {
	if server == "" {
		return commuter.Local()
	}
	cli, err := commuter.Dial(server)
	if err != nil {
		fatal(err)
	}
	return cli
}

// runContext is the lifetime of one CLI invocation: Ctrl-C cancels it, and
// the cancellation propagates through the client into the pipeline (local
// workers or the remote server) instead of killing the process mid-write.
func runContext() (context.Context, context.CancelFunc) {
	return signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
}

// splitPair parses the -pair flag into its two op names; name resolution
// (with its "known ops" listing) happens inside the client.
func splitPair(s string) (string, string) {
	parts := strings.Split(s, ",")
	if len(parts) != 2 {
		fmt.Fprintln(os.Stderr, "commuter: -pair wants op1,op2")
		os.Exit(2)
	}
	return strings.TrimSpace(parts[0]), strings.TrimSpace(parts[1])
}

// kernelNames parses the -kernel flag: "both"/"all" means every
// implementation of the spec (the client's default).
func kernelNames(s string) []string {
	if s == "both" || s == "all" {
		return nil
	}
	names := strings.Split(s, ",")
	for i := range names {
		names[i] = strings.TrimSpace(names[i])
	}
	return names
}

func cmdAnalyze(args []string) {
	fs := flag.NewFlagSet("analyze", flag.ExitOnError)
	pair := fs.String("pair", "rename,rename", "operation pair to analyze")
	specName := specFlag(fs)
	server := serverFlag(fs)
	lowest := lowestFDFlag(fs)
	verbose := fs.Bool("v", false, "print each path's commutativity condition")
	logLevel := logFlag(fs)
	fs.Parse(args)
	setupLogging(*logLevel)

	ctx, stop := runContext()
	defer stop()
	cli := newClient(*server)
	defer cli.Close()
	opA, opB := splitPair(*pair)
	start := time.Now()
	a, err := cli.Analyze(ctx, opA, opB,
		commuter.WithSpec(*specName), commuter.WithLowestFD(*lowest))
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%s (%v)\n", a.Summary(), time.Since(start).Round(time.Millisecond))
	fmt.Println("\ncommutative situations (§5.1-style clauses):")
	for _, d := range a.Clauses {
		fmt.Printf("  - %s\n", d)
	}
	if *verbose {
		fmt.Println("\nraw per-path conditions:")
		for i, p := range a.PathDetails {
			tag := ""
			if p.Commutes {
				tag += " commutes"
			}
			if p.CanDiverge {
				tag += " diverges"
			}
			if p.Unknown {
				tag += " unknown(solver budget)"
			}
			fmt.Printf("path %d:%s\n  condition: %v\n", i, tag, p.Condition)
		}
	}
}

func cmdTestgen(args []string) {
	fs := flag.NewFlagSet("testgen", flag.ExitOnError)
	pair := fs.String("pair", "rename,rename", "operation pair")
	specName := specFlag(fs)
	server := serverFlag(fs)
	perPath := fs.Int("per-path", 4, "max isomorphism classes per path")
	lowest := lowestFDFlag(fs)
	check := fs.Bool("check", false, "also run the tests on the spec's implementations")
	logLevel := logFlag(fs)
	fs.Parse(args)
	setupLogging(*logLevel)

	ctx, stop := runContext()
	defer stop()
	cli := newClient(*server)
	defer cli.Close()
	opA, opB := splitPair(*pair)
	opts := []commuter.Option{
		commuter.WithSpec(*specName),
		commuter.WithTestsPerPath(*perPath),
		commuter.WithLowestFD(*lowest),
	}
	ts, err := cli.GenerateTests(ctx, opA, opB, opts...)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%d test cases for %s x %s\n", len(ts.Tests), ts.OpA, ts.OpB)
	if ts.Unknown > 0 {
		fmt.Fprintf(os.Stderr, "commuter: warning: %d path(s) hit the solver budget; the test set is a lower bound\n", ts.Unknown)
	}

	// With -check, batch one Check call per implementation, then print
	// verdicts under each test in implementation order.
	var verdicts map[string][]commuter.TestVerdict
	var impls []string
	if *check {
		impls = implNames(ctx, cli, *specName)
		verdicts = map[string][]commuter.TestVerdict{}
		for _, kn := range impls {
			sum, err := cli.Check(ctx, kn, ts.Tests, opts...)
			if err != nil {
				fatal(err)
			}
			// The wire response is untrusted input: a short verdict list
			// (truncated body that still parses, a misbehaving proxy) must
			// fail cleanly, not index out of range below.
			if len(sum.Verdicts) != len(ts.Tests) {
				fatal(fmt.Errorf("%s returned %d verdicts for %d tests", kn, len(sum.Verdicts), len(ts.Tests)))
			}
			verdicts[kn] = sum.Verdicts
		}
	}
	for i, tc := range ts.Tests {
		printTest(tc)
		for _, kn := range impls {
			v := verdicts[kn][i]
			verdict := "conflict-free"
			if !v.ConflictFree {
				verdict = "CONFLICTS on " + strings.Join(v.Conflicts, ", ")
			}
			fmt.Printf("  %-5s: %s\n", kn, verdict)
		}
	}
}

// implNames looks up the named spec's implementations through the client,
// so -check works identically against a server.
func implNames(ctx context.Context, cli commuter.Client, specName string) []string {
	infos, err := cli.Specs(ctx)
	if err != nil {
		fatal(err)
	}
	for _, in := range infos {
		if in.Name == specName {
			return in.Impls
		}
	}
	fatal(fmt.Errorf("spec %q not offered by the pipeline", specName))
	return nil
}

// printTest renders a test case in the style of the paper's Figure 5.
func printTest(tc commuter.TestCase) {
	fmt.Printf("\ntest %s:\n", tc.ID)
	fmt.Println("  setup:")
	for _, ino := range tc.Setup.Inodes {
		fmt.Printf("    inode %d: len=%d extra_links=%d pages=%v\n", ino.Inum, ino.Len, ino.ExtraLinks, ino.Pages)
	}
	for _, f := range tc.Setup.Files {
		fmt.Printf("    file %s -> inode %d\n", f.Name, f.Inum)
	}
	for _, p := range tc.Setup.Pipes {
		fmt.Printf("    pipe %d: %v\n", p.ID, p.Items)
	}
	for _, q := range tc.Setup.Queues {
		if q.Core < 0 {
			fmt.Printf("    queue ordered: %v\n", q.Items)
		} else {
			fmt.Printf("    queue core %d: %v\n", q.Core, q.Items)
		}
	}
	for _, fd := range tc.Setup.FDs {
		if fd.Pipe {
			fmt.Printf("    fd p%d:%d -> pipe %d (write=%v)\n", fd.Proc, fd.FD, fd.PipeID, fd.WriteEnd)
		} else {
			fmt.Printf("    fd p%d:%d -> inode %d off=%d\n", fd.Proc, fd.FD, fd.Inum, fd.Off)
		}
	}
	for _, v := range tc.Setup.VMAs {
		fmt.Printf("    vma p%d:page%d anon=%v wr=%v inode=%d foff=%d\n",
			v.Proc, v.Page, v.Anon, v.Writable, v.Inum, v.Foff)
	}
	for _, kv := range tc.Setup.KVs {
		fmt.Printf("    kv %d = %d\n", kv.Key, kv.Val)
	}
	fmt.Printf("  op0: %v\n  op1: %v\n", tc.Calls[0], tc.Calls[1])
}

// sweepOptions assembles the sweep's client options.
func sweepOptions(specName, ops, kern string, perPath int, lowest bool, workers int) []commuter.Option {
	opts := []commuter.Option{
		commuter.WithSpec(specName),
		commuter.WithTestsPerPath(perPath),
		commuter.WithLowestFD(lowest),
	}
	if ops != "" {
		opts = append(opts, commuter.WithOpSet(ops))
	}
	if names := kernelNames(kern); len(names) > 0 {
		opts = append(opts, commuter.WithKernels(names...))
	}
	if workers > 0 {
		opts = append(opts, commuter.WithWorkers(workers))
	}
	return opts
}

// runSweep drives one streamed sweep, printing progress to stderr and
// optionally mirroring per-pair results to a JSONL artifact.
func runSweep(ctx context.Context, cli commuter.Client, artifactPath string, opts []commuter.Option) *commuter.SweepResult {
	var artifact *os.File
	var enc *json.Encoder
	if artifactPath != "" {
		f, err := os.Create(artifactPath)
		if err != nil {
			fatal(err)
		}
		artifact = f
		enc = json.NewEncoder(f)
	}
	// The artifact holds an arbitrary prefix of a failed sweep, and a
	// truncated JSONL file parses as a complete one; remove it on any
	// failure so nothing downstream mistakes it for a finished run.
	discardArtifact := func() {
		if artifact != nil {
			artifact.Close()
			os.Remove(artifactPath)
		}
	}

	var res *commuter.SweepResult
	for upd, err := range cli.SweepStream(ctx, opts...) {
		if err != nil {
			discardArtifact()
			fatal(err)
		}
		if upd.Pair != nil && enc != nil {
			if werr := enc.Encode(upd.Pair); werr != nil {
				discardArtifact()
				fatal(fmt.Errorf("artifact write: %w", werr))
			}
		}
		if ev := upd.Progress; ev != nil {
			from := "computed"
			switch {
			case ev.Cached:
				from = "cached"
			case ev.Coalesced:
				from = "coalesced"
			}
			fmt.Fprintf(os.Stderr, "[%3d/%3d] %-20s %4d tests %-8s in %.0fms (total %v)\n",
				ev.Done, ev.Total, ev.Pair, ev.Tests, from, ev.PairMS, ev.Elapsed.Round(time.Millisecond))
		}
		if upd.Result != nil {
			res = upd.Result
		}
	}
	if res == nil {
		discardArtifact()
		fatal(fmt.Errorf("sweep stream ended without a result"))
	}
	if artifact != nil {
		// A close error (deferred write failure on NFS, full disk) means a
		// truncated artifact; remove it and fail loudly rather than exit 0
		// leaving bad data that parses as a complete run.
		if err := artifact.Close(); err != nil {
			os.Remove(artifactPath)
			fatal(fmt.Errorf("artifact: %w", err))
		}
	}
	return res
}

// writeTraceFile exports the sweep's per-pair/per-phase timeline as a
// Chrome trace-event file. Remote sweeps work too: the phase record rides
// the wire inside each PairResult.
func writeTraceFile(path string, res *commuter.SweepResult) {
	f, err := os.Create(path)
	if err != nil {
		fatal(err)
	}
	if err := commuter.WriteSweepTrace(f, res); err != nil {
		f.Close()
		os.Remove(path)
		fatal(fmt.Errorf("trace: %w", err))
	}
	if err := f.Close(); err != nil {
		os.Remove(path)
		fatal(fmt.Errorf("trace: %w", err))
	}
	fmt.Fprintf(os.Stderr, "commuter: wrote trace to %s (load in chrome://tracing or ui.perfetto.dev)\n", path)
}

func cmdSweep(args []string) {
	fs := flag.NewFlagSet("sweep", flag.ExitOnError)
	ops := fs.String("ops", "", `operation universe: "all", a spec-named subset ("fs"), or a comma list`)
	specName := specFlag(fs)
	server := serverFlag(fs)
	j := fs.Int("j", 0, "worker pool size (default: executing side's CPUs)")
	cacheDir := fs.String("cache", "", "result cache backend: a directory (or dir:PATH), mem[:N], an http(s) server URL, or a comma list layered fastest-first (empty disables caching; server-side caches are set by `serve -cache`)")
	out := fs.String("out", "", "write per-pair results as JSONL to this file")
	kern := fs.String("kernel", "both", `implementation names, or "both"/"all" for every one`)
	perPath := fs.Int("per-path", 4, "max isomorphism classes per path")
	lowest := lowestFDFlag(fs)
	tracePath := fs.String("trace", "", "write a Chrome trace-event timeline of the sweep to this file")
	fleet := fs.String("fleet", "", "fleet coordinator: `coordinator=URL` (or a bare URL) of a commuter serve instance; this sweep then executes only the pairs it leases, sharing the work with every other member (server-side fleets are set by `serve -fleet`)")
	logLevel := logFlag(fs)
	fs.Parse(args)
	setupLogging(*logLevel)

	ctx, stop := runContext()
	defer stop()
	cli := newClient(*server)
	defer cli.Close()
	workers := *j
	if *server == "" && workers == 0 {
		workers = runtime.NumCPU()
	}
	opts := sweepOptions(*specName, *ops, *kern, *perPath, *lowest, workers)
	if *cacheDir != "" {
		opts = append(opts, commuter.WithCache(*cacheDir))
	}
	if *fleet != "" {
		opts = append(opts, commuter.WithFleet(fleetURL(*fleet)))
	}
	res := runSweep(ctx, cli, *out, opts)
	if *tracePath != "" {
		writeTraceFile(*tracePath, res)
	}

	fmt.Printf("swept %d pairs (%d tests) on %d workers in %v",
		len(res.Pairs), res.TotalTests(), res.Workers, res.Elapsed.Round(time.Millisecond))
	// Replay shape: how many setup groups the CHECK stages batched into.
	groups := 0
	for _, p := range res.Pairs {
		groups += p.CheckGroups
	}
	if groups > 0 {
		fmt.Printf("; check: %d setup groups", groups)
	}
	// Print per-tier statistics whenever a cache was in play: requested
	// locally, or reported back non-zero by a caching server.
	if *cacheDir != "" || res.Cache != (commuter.SweepCacheStats{}) {
		fmt.Printf("; cache: testgen %d hits/%d misses, check %d hits/%d misses",
			res.Cache.TestgenHits, res.Cache.TestgenMisses,
			res.Cache.CheckHits, res.Cache.CheckMisses)
	}
	fmt.Print("\n\n")
	if res.CacheWriteErrors > 0 {
		fmt.Fprintf(os.Stderr, "commuter: warning: %d cache entries could not be stored\n", res.CacheWriteErrors)
	}
	for _, m := range commuter.MatricesFromSweep(res) {
		fmt.Println(commuter.FormatMatrix(m))
	}
}
