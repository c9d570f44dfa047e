package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// benchProcs is the parallelism of every untraced run: sweep workers,
// client connections and GOMAXPROCS. It is fixed, not taken from the box,
// so that runs on different machines measure the same program; a box with
// fewer CPUs is refused instead.
const benchProcs = 2

// setupRounds is how many times an untraced run sets its workload up;
// setup_s is the median.
const setupRounds = 3

// rssBlocks is the block of the timed loop after which peak_rss_mb is read.
// A cold sweep leaves the process some 10 MB bigger than it found it, so the
// peak when the loop ends follows the number of iterations, and with it the
// speed of the box; the peak after a fixed number of them does not.
const rssBlocks = 4

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type runOptions struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	out      string // directory for traces and scratch caches
}

// runWorkload is one run of the contract: set up, measure one workload for
// the given time, check every output, report.
func runWorkload(ctx context.Context, o runOptions, log io.Writer) (result, error) {
	setup, ok := workloads[o.workload]
	if !ok {
		return result{}, fmt.Errorf("unknown workload %q (known: %s)", o.workload, strings.Join(workloadNames(), ", "))
	}
	if n := runtime.NumCPU(); n < benchProcs {
		return result{}, fmt.Errorf("the benchmark runs %d workers and this box has %d CPU: refusing to run rather than change what is measured", benchProcs, n)
	}
	runtime.GOMAXPROCS(benchProcs)

	expected, err := loadExpected()
	if err != nil {
		return result{}, err
	}
	u, err := posixUniverse(ctx)
	if err != nil {
		return result{}, err
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return result{}, err
	}
	tmp, err := os.MkdirTemp(o.out, "tmp-")
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(tmp)

	e := &env{u: u, seed: o.seed, workers: benchProcs, tmp: tmp, expected: expected}
	if o.trace {
		return runTraced(ctx, o, e, setup, log)
	}

	ref, err := startRef(ctx)
	if err != nil {
		return result{}, err
	}
	res, err := runUntraced(ctx, o, e, setup, ref.pass, log)
	return res, errors.Join(err, ref.stop())
}

// runUntraced sets the workload up setupRounds times, then runs blocks of
// it for the given time with a reference pass between them, and reports the
// end-to-end metrics. Wall time is the median iteration's over the median
// pass's: the box's slow phases outlast a run, so every pass of a run
// measures the same box, and their median does so better than the two
// passes next to an iteration would.
func runUntraced(ctx context.Context, o runOptions, e *env, setup func(context.Context, *env) (instance, error), ref func() (time.Duration, error), log io.Writer) (result, error) {
	var (
		inst   instance
		setupS []float64
		err    error
	)
	for round := range setupRounds {
		if inst != nil {
			if err := inst.close(); err != nil {
				return result{}, err
			}
		}
		start := time.Now()
		if inst, err = setup(ctx, e); err != nil {
			return result{}, fmt.Errorf("%s: set-up %d: %w", o.workload, round, err)
		}
		setupS = append(setupS, time.Since(start).Seconds())
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	blocks, passes, err := timedLoop(ctx, inst, time.Now().Add(time.Duration(o.seconds)*time.Second), ref)
	runtime.ReadMemStats(&after)
	if err := errors.Join(err, inst.close()); err != nil {
		return result{}, err
	}

	samples := flatten(blocks)
	walls, _, failed := summarize(samples, log)
	if len(walls) == 0 {
		return result{}, fmt.Errorf("%s: every iteration failed", o.workload)
	}
	refMS := make([]float64, len(passes))
	for i, p := range passes {
		refMS[i] = float64(p) / float64(time.Millisecond)
	}
	for i, b := range blocks {
		w, _, _ := summarize(b.samples, io.Discard)
		fmt.Fprintf(log, "block %2d: %d iterations, wall p50 %9.3f ms, peak rss %5.1f MB, then reference %8.3f ms\n",
			i+1, len(b.samples), percentile(w, 50), b.hwmMB, refMS[i+1])
	}
	values := map[string]float64{
		"setup_s":           median(setupS),
		"wall_p50_x":        percentile(walls, 50) / median(refMS),
		"alloc_mb_per_iter": float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20) / float64(len(samples)),
		"peak_rss_mb":       blocks[min(rssBlocks, len(blocks))-1].hwmMB,
	}
	fmt.Fprintf(log, "%s: %d samples in %d blocks, wall p50 = %.3f ms, reference p50 = %.3f ms\n",
		o.workload, len(walls), len(blocks), percentile(walls, 50), median(refMS))
	if p := tailPercentile(len(walls)); p > 0 {
		fmt.Fprintf(log, "%s: wall p%g = %.3f ms\n", o.workload, p, percentile(walls, p))
	}
	return report(endToEndDefs, values, len(samples), failed, log)
}

// block is what the timed loop ran between two reference passes.
type block struct {
	samples []sample
	hwmMB   float64 // the process's peak resident set when the block ended
}

// timedLoop runs blocks of the workload until the deadline has passed —
// always at least one — and, given a reference, times one pass of it before
// the first block and after every block.
func timedLoop(ctx context.Context, inst instance, until time.Time, ref func() (time.Duration, error)) ([]block, []time.Duration, error) {
	var (
		blocks []block
		passes []time.Duration
	)
	pass := func() error {
		if ref == nil {
			return nil
		}
		p, err := ref()
		passes = append(passes, p)
		return err
	}
	if err := pass(); err != nil {
		return nil, nil, err
	}
	for {
		b := block{samples: inst.block(ctx)}
		var err error
		if b.hwmMB, err = peakRSSMB(); err != nil {
			return nil, nil, err
		}
		blocks = append(blocks, b)
		if err := pass(); err != nil {
			return nil, nil, err
		}
		if !time.Now().Before(until) {
			return blocks, passes, nil
		}
	}
}

func flatten(blocks []block) []sample {
	var out []sample
	for _, b := range blocks {
		out = append(out, b.samples...)
	}
	return out
}

// summarize returns the sorted wall times in ms, the verdicts delivered
// and the number of failed iterations, logging each failure.
func summarize(samples []sample, log io.Writer) (walls []float64, verdicts, failed int) {
	for _, s := range samples {
		if s.err != nil {
			failed++
			fmt.Fprintf(log, "FAILED iteration: %v\n", s.err)
			continue
		}
		walls = append(walls, float64(s.wall)/float64(time.Millisecond))
		verdicts += s.verdicts
	}
	sort.Float64s(walls)
	return walls, verdicts, failed
}

// report checks that values holds exactly the metrics of defs, prints them
// by name and unit, and builds the result.
func report(defs []metricDef, values map[string]float64, attempted, failed int, log io.Writer) (result, error) {
	res := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			return result{}, fmt.Errorf("metric %s was not measured", d.Name)
		}
		res.Metrics[d.Name] = metric{Value: v, Unit: d.Unit}
		fmt.Fprintf(log, "%-28s %14.4f %s\n", d.Name, v, d.Unit)
	}
	if len(values) != len(defs) {
		names := make([]string, 0, len(values))
		for n := range values {
			names = append(names, n)
		}
		sort.Strings(names)
		return result{}, fmt.Errorf("measured %d metrics, the manifest lists %d: measured %v", len(values), len(defs), names)
	}
	return res, nil
}

// percentile returns the nearest-rank p-th percentile of sorted values, or
// 0 when there are none.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(p/100*float64(len(sorted)) + 0.999999)
	return sorted[min(max(rank, 1), len(sorted))-1]
}

func median(values []float64) float64 {
	sorted := slices.Clone(values)
	sort.Float64s(sorted)
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// tailPercentile picks the percentile a timing is reported at beside its
// median: the highest that leaves at least ten of n samples beyond it, or
// 0 when not even the 90th does.
func tailPercentile(n int) float64 {
	for _, c := range []struct {
		pct float64
		per int // one sample in per lies beyond pct
	}{{99.9, 1000}, {99, 100}, {90, 10}} {
		if n/c.per >= 10 {
			return c.pct
		}
	}
	return 0
}

// peakRSSMB reads the process's peak resident set from /proc.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("/proc/self/status: VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.Join(sc.Err(), errors.New("/proc/self/status: no VmHWM line"))
}

// cpuSeconds is the user and system CPU time the process has used.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0 // cannot fail for RUSAGE_SELF with a valid pointer
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// runTraced is the traced run: the workload at one worker, for a third of
// the time with spans off and a third with spans on, then every layer probe
// on its fixed corpus. It reports the per-layer metrics and writes the spans
// as a Chrome trace.
func runTraced(ctx context.Context, o runOptions, e *env, setup func(context.Context, *env) (instance, error), log io.Writer) (result, error) {
	e.workers = 1
	e.tr = newTracer()
	top := e.tr.lane(0)

	_, endSetup := top.span(o.workload+".setup", "workload")
	inst, err := setup(ctx, e)
	endSetup()
	if err != nil {
		return result{}, fmt.Errorf("%s: set-up: %w", o.workload, err)
	}

	// The workload gets a third of the time with spans off and a third
	// with them on; the probes, whose corpora are fixed, take the rest.
	third := time.Duration(o.seconds) * time.Second / 3
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cpu := cpuSeconds()
	e.tr.on.Store(false)
	offBlocks, _, err := timedLoop(ctx, inst, time.Now().Add(third), nil)
	e.tr.on.Store(true)
	onBlocks, _, onErr := timedLoop(ctx, inst, time.Now().Add(third), nil)
	cpu = cpuSeconds() - cpu
	runtime.ReadMemStats(&after)
	if err := errors.Join(err, onErr, inst.close()); err != nil {
		return result{}, err
	}
	off, on := flatten(offBlocks), flatten(onBlocks)

	offWalls, _, offFailed := summarize(off, log)
	onWalls, _, onFailed := summarize(on, log)
	walls := append(slices.Clone(offWalls), onWalls...)
	sort.Float64s(walls)
	iters := float64(len(off) + len(on))
	tail := tailPercentile(len(walls))
	if tail == 0 {
		tail = 50
	}
	values := map[string]float64{
		"runtime.iters":                iters,
		"runtime.wall_p50_ms":          percentile(walls, 50),
		"runtime.wall_tail_ms":         percentile(walls, tail),
		"runtime.wall_tail_pct":        tail,
		"runtime.cpu_s_per_iter":       cpu / iters,
		"runtime.gc_cycles_per_iter":   float64(after.NumGC-before.NumGC) / iters,
		"runtime.gc_pause_ms_per_iter": float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6 / iters,
		"trace.overhead_share":         ratio(percentile(onWalls, 50), percentile(offWalls, 50)) - 1,
	}

	probed, probeFailed, err := runProbes(ctx, e, log)
	if err != nil {
		return result{}, err
	}
	for name, v := range probed {
		values[name] = v
	}
	path := filepath.Join(o.out, "trace-"+o.workload+".json")
	if err := e.tr.write(path); err != nil {
		return result{}, err
	}
	fmt.Fprintf(log, "Chrome trace: %s\n", path)
	return report(perLayerDefs, values, len(off)+len(on), offFailed+onFailed+probeFailed, log)
}

// emit prints the result as the run's last line.
func emit(w io.Writer, res result) error {
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
