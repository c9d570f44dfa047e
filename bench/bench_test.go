package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/commuter"
	"repro/internal/sweep"
)

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{0, 0}, {6, 0}, {99, 0}, {100, 90}, {478, 90}, {999, 90}, {1000, 99}, {9999, 99}, {10000, 99.9}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestPercentileAndMedian(t *testing.T) {
	sorted := make([]float64, 100)
	for i := range sorted {
		sorted[i] = float64(i + 1)
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {90, 90}, {99, 99}, {100, 100}, {0, 1}} {
		if got := percentile(sorted, c.p); got != c.want {
			t.Errorf("percentile(1..100, %g) = %g, want %g", c.p, got, c.want)
		}
	}
	// Ten samples lie beyond the percentile tailPercentile picks.
	if beyond := len(sorted) - int(percentile(sorted, tailPercentile(len(sorted)))); beyond != 10 {
		t.Errorf("%d samples beyond the picked percentile, want 10", beyond)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %g, want 0", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %g, want 2.5", got)
	}
}

// TestQuartilesMatchPython pins quartiles to what Python's
// statistics.quantiles(values, n=4) returns, the driver's measure.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %g, %g, want 2.75, 8.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{1, 2, 4})
	if q1 != 1 || q3 != 4 {
		t.Errorf("quartiles(1,2,4) = %g, %g, want 1, 4", q1, q3)
	}
}

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "wall_p50_ms", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "verdicts_per_s", Better: "higher", Bound: 0.10}
	for _, c := range []struct {
		name string
		def  metricDef
		a, b []float64
		want string
	}{
		{"same", lower, []float64{100, 101, 102}, []float64{101, 102, 103}, "ok"},
		{"slower", lower, []float64{100, 101, 102}, []float64{120, 121, 122}, "worse"},
		{"faster", lower, []float64{100, 101, 102}, []float64{50, 51, 52}, "ok"},
		{"fewer per second", higher, []float64{100, 101, 102}, []float64{80, 81, 82}, "worse"},
		{"more per second", higher, []float64{100, 101, 102}, []float64{130, 131, 132}, "ok"},
		{"noisy", lower, []float64{100, 150, 200}, []float64{100, 150, 200}, "unresolved"},
		{"noisy but every run better", lower, []float64{100, 150, 200}, []float64{40, 60, 80}, "ok"},
		{"single runs", lower, []float64{100}, []float64{105}, "ok"},
		{"no bound", metricDef{Name: "sym.sat_calls", Better: "lower"}, []float64{1}, []float64{9}, "-"},
	} {
		if got := judge(c.def, c.a, c.b); got != c.want {
			t.Errorf("%s: judge = %q, want %q", c.name, got, c.want)
		}
	}
}

func TestCompare(t *testing.T) {
	write := func(name string, wall float64) string {
		f := resultsFile{Workloads: map[string][]runRecord{}}
		for _, w := range workloadNames() {
			for i := range 3 {
				rec := runRecord{Seed: int64(i), result: result{Correct: true, Attempted: 1, Metrics: map[string]metric{}}}
				for _, d := range endToEndDefs {
					rec.Metrics[d.Name] = metric{Value: 100 + float64(i), Unit: d.Unit}
				}
				rec.Metrics["wall_p50_x"] = metric{Value: wall + float64(i), Unit: "x"}
				f.Workloads[w] = append(f.Workloads[w], rec)
			}
		}
		data, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base, same, slow := write("a.json", 100), write("b.json", 101), write("c.json", 150)

	var out bytes.Buffer
	if err := cmdCompare([]string{base, same}, &out); err != nil {
		t.Errorf("equal runs: %v\n%s", err, &out)
	}
	if rows := strings.Count(out.String(), "\n"); rows != 1+len(workloadDefs)*len(endToEndDefs) {
		t.Errorf("got %d lines, want a header and one row per workload and metric:\n%s", rows, &out)
	}
	out.Reset()
	if err := cmdCompare([]string{base, slow}, &out); err == nil {
		t.Errorf("a 50%% slower wall_p50_x passed:\n%s", &out)
	}
	if got := strings.Count(out.String(), "worse"); got != len(workloadDefs) {
		t.Errorf("%d rows worse, want wall_p50_x on each of the %d workloads:\n%s", got, len(workloadDefs), &out)
	}
}

func TestGenRequests(t *testing.T) {
	ops := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	const minOps, n = 4, 103
	reqs := genRequests(7, ops, minOps, n)
	if len(reqs) != n {
		t.Fatalf("got %d requests, want %d", len(reqs), n)
	}
	if !reflect.DeepEqual(reqs, genRequests(7, ops, minOps, n)) {
		t.Error("the same seed gave different requests")
	}
	if reflect.DeepEqual(reqs, genRequests(8, ops, minOps, n)) {
		t.Error("another seed gave the same requests")
	}
	sizes := len(ops) - minOps + 1
	for i, req := range reqs {
		if len(req) < minOps || len(req) > len(ops) {
			t.Fatalf("request %d has %d ops, want %d to %d", i, len(req), minOps, len(ops))
		}
		at := -1
		for _, op := range req { // canonical order, no repeats
			next := slices.Index(ops, op)
			if next <= at {
				t.Fatalf("request %d = %v is not a subsequence of %v", i, req, ops)
			}
			at = next
		}
	}
	for circle := 0; circle+2*sizes <= n; circle += 2 * sizes { // every op left out as often, to within one
		left := map[string]int{}
		for _, req := range reqs[circle : circle+2*sizes] {
			for _, op := range ops {
				if !slices.Contains(req, op) {
					left[op]++
				}
			}
		}
		for _, op := range ops {
			if d := left[op] - left[ops[0]]; d < -1 || d > 1 {
				t.Fatalf("requests %d to %d leave ops out unevenly: %v", circle, circle+2*sizes-1, left)
			}
		}
	}
	for block := 0; block+sizes <= n; block += sizes { // every size once per block
		seen := map[int]bool{}
		for _, req := range reqs[block : block+sizes] {
			seen[len(req)] = true
		}
		if len(seen) != sizes {
			t.Fatalf("requests %d to %d hold %d sizes, want every one of %d", block, block+sizes-1, len(seen), sizes)
		}
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestManifestMatchesBenchmarkJSON proves that BENCHMARK.json is the
// manifest this package emits its metrics from, and that the manifest
// stays inside the limits of the driver's contract.
func TestManifestMatchesBenchmarkJSON(t *testing.T) {
	want, err := manifest()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("BENCHMARK.json differs from `bench manifest`; regenerate it")
	}
	names := map[string]bool{}
	check := func(kind, name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q is outside [A-Za-z0-9_.-]{1,64}", kind, name)
		}
		if names[name] {
			t.Errorf("name %q is used twice", name)
		}
		names[name] = true
	}
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	for _, w := range workloadDefs {
		check("workload", w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
		if workloads[w.Name] == nil {
			t.Errorf("workload %s has no set-up function", w.Name)
		}
	}
	if len(workloads) != len(workloadDefs) {
		t.Errorf("%d set-up functions for %d workloads", len(workloads), len(workloadDefs))
	}
	for _, d := range append(slices.Clone(endToEndDefs), perLayerDefs...) {
		check("metric", d.Name)
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("metric %s: unit %q", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %s: better %q", d.Name, d.Better)
		}
	}
	for _, d := range endToEndDefs {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("metric %s: bound %g is outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	if !slices.ContainsFunc(endToEndDefs, func(d metricDef) bool {
		return d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower"
	}) {
		t.Error("setup_s must be an end-to-end metric in s, lower better")
	}
	if n := len(perLayerDefs); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", n)
	}
	if len(want) > 64<<10 {
		t.Errorf("manifest is %d bytes, want at most 64 KiB", len(want))
	}
}

// TestExpectedAgreesWithGoldens proves expected.json agrees with the
// golden matrices the CLI's tests pin, wherever the two overlap: every
// conflict count of posix fs, vm and kv, and each kernel's totals.
func TestExpectedAgreesWithGoldens(t *testing.T) {
	expected, err := loadExpected()
	if err != nil {
		t.Fatal(err)
	}
	header := regexp.MustCompile(`^(\w+) \((\d+) of (\d+) tests conflict-free\)$`)
	for _, g := range []struct{ file, spec string }{{"matrix_fs", "posix"}, {"matrix_vm", "vm"}, {"matrix_kv", "kv"}} {
		data, err := os.ReadFile(filepath.Join("..", "cmd", "commuter", "testdata", g.file+".golden"))
		if err != nil {
			t.Fatal(err)
		}
		blocks := 0
		for _, block := range strings.Split(strings.TrimSpace(string(data)), "\n\n") {
			lines := strings.Split(block, "\n")
			m := header.FindStringSubmatch(lines[0])
			if m == nil {
				t.Fatalf("%s: unexpected header %q", g.file, lines[0])
			}
			kernel := m[1]
			free, _ := strconv.Atoi(m[2])
			total, _ := strconv.Atoi(m[3])
			rows := lines[1 : len(lines)-1] // the last line labels the columns
			ops := make([]string, len(rows))
			for i, row := range rows {
				ops[i] = strings.Fields(row)[0]
			}
			sumTotal, sumConflicts := 0, 0
			for i, row := range rows {
				cells := strings.Fields(row)[1:]
				if len(cells) != i+1 {
					t.Fatalf("%s %s: row %s has %d cells, want %d", g.file, kernel, ops[i], len(cells), i+1)
				}
				for j, text := range cells {
					want := 0
					if text != "." {
						if want, err = strconv.Atoi(text); err != nil {
							t.Fatalf("%s %s: cell %q", g.file, kernel, text)
						}
					}
					pair := ops[j] + "/" + ops[i]
					got, ok := expected[g.spec][kernel][pair]
					if !ok || got.Conflicts != want {
						t.Errorf("%s %s %s: expected.json has %+v (present %v), golden has %d conflicts", g.spec, kernel, pair, got, ok, want)
					}
					sumTotal += got.Total
					sumConflicts += got.Conflicts
				}
			}
			if sumTotal != total || sumConflicts != total-free {
				t.Errorf("%s %s: expected.json sums to %d tests, %d conflicts; golden has %d, %d", g.spec, kernel, sumTotal, sumConflicts, total, total-free)
			}
			blocks++
		}
		if blocks != len(expected[g.spec]) {
			t.Errorf("%s: golden has %d kernels, expected.json %d", g.spec, blocks, len(expected[g.spec]))
		}
	}
}

func TestVerifyRejectsWrongCells(t *testing.T) {
	expected := matrices{"s": {"k": {"a/a": {2, 0}, "a/b": {3, 1}, "b/b": {1, 0}}}}
	good := func() *commuter.SweepResult {
		return &commuter.SweepResult{Spec: "s", Pairs: []commuter.SweepPair{
			{OpA: "a", OpB: "a", Cells: []sweep.KernelCell{{Kernel: "k", Total: 2}}},
			{OpA: "a", OpB: "b", Cells: []sweep.KernelCell{{Kernel: "k", Total: 3, Conflicts: 1}}},
			{OpA: "b", OpB: "b", Cells: []sweep.KernelCell{{Kernel: "k", Total: 1}}},
		}}
	}
	ops, kernels := []string{"a", "b"}, []string{"k"}
	if v, err := expected.verify(good(), ops, kernels); err != nil || v != 6 {
		t.Errorf("verify = %d, %v; want 6 verdicts", v, err)
	}
	for name, spoil := range map[string]func(*commuter.SweepResult){
		"wrong conflicts": func(r *commuter.SweepResult) { r.Pairs[1].Cells[0].Conflicts = 0 },
		"wrong total":     func(r *commuter.SweepResult) { r.Pairs[0].Cells[0].Total = 9 },
		"missing pair":    func(r *commuter.SweepResult) { r.Pairs = r.Pairs[:2] },
		"missing cell":    func(r *commuter.SweepResult) { r.Pairs[2].Cells = nil },
		"unknown paths":   func(r *commuter.SweepResult) { r.Pairs[2].Unknown = 1 },
		"other kernel":    func(r *commuter.SweepResult) { r.Pairs[2].Cells[0].Kernel = "x" },
		"foreign pair":    func(r *commuter.SweepResult) { r.Pairs[2].OpB = "c" },
	} {
		r := good()
		spoil(r)
		if _, err := expected.verify(r, ops, kernels); err == nil {
			t.Errorf("%s: verify accepted it", name)
		}
	}
}

// TestWorkloadsSmoke runs every workload for one iteration on the queue
// spec, untraced and traced, with the checks the benchmark applies.
func TestWorkloadsSmoke(t *testing.T) {
	ctx := context.Background()
	expected, err := loadExpected()
	if err != nil {
		t.Fatal(err)
	}
	u, err := newUniverse(ctx, "queue", []string{"queue"}, "ordered", 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, traced := range []bool{false, true} {
		for _, w := range workloadDefs {
			t.Run(fmt.Sprintf("%s/traced=%v", w.Name, traced), func(t *testing.T) {
				e := &env{u: u, seed: 1, workers: benchProcs, tmp: t.TempDir(), expected: expected}
				if traced {
					e.workers, e.tr = 1, newTracer()
				}
				inst, err := workloads[w.Name](ctx, e)
				if err != nil {
					t.Fatal(err)
				}
				blocks, _, err := timedLoop(ctx, inst, time.Now(), nil) // the deadline has passed: one block
				if err != nil {
					t.Fatal(err)
				}
				if err := inst.close(); err != nil {
					t.Error(err)
				}
				samples := flatten(blocks)
				want := 1
				if w.Name == "serve_warm" {
					want = serveRound
				}
				walls, verdicts, failed := summarize(samples, io.Discard)
				if failed != 0 || len(blocks) != 1 || len(walls) != want {
					t.Fatalf("%d blocks, %d samples, %d failed: %+v", len(blocks), len(samples), failed, samples)
				}
				if verdicts == 0 {
					t.Error("the iteration delivered no verdicts")
				}
				if traced {
					path := filepath.Join(e.tmp, "trace.json")
					if err := e.tr.write(path); err != nil {
						t.Fatal(err)
					}
					data, err := os.ReadFile(path)
					if err != nil {
						t.Fatal(err)
					}
					var trace struct {
						TraceEvents []struct {
							Name, Cat string
						} `json:"traceEvents"`
					}
					if err := json.Unmarshal(data, &trace); err != nil {
						t.Fatalf("the Chrome trace does not parse: %v", err)
					}
					cats := map[string]int{}
					for _, ev := range trace.TraceEvents {
						cats[ev.Cat]++
					}
					if cats["workload"] == 0 || cats["pair"] == 0 {
						t.Errorf("trace holds spans %v, want workload and pair spans", cats)
					}
				}
			})
		}
	}
}

// fakeInstance runs blocks of one iteration whose wall times are given.
type fakeInstance struct {
	walls []time.Duration
	ran   int
}

func (f *fakeInstance) block(context.Context) []sample {
	s := sample{wall: f.walls[f.ran%len(f.walls)], verdicts: 1}
	f.ran++
	return []sample{s}
}

func (*fakeInstance) close() error { return nil }

// TestTimedLoopTimesAPassBetweenBlocks proves a reference pass is timed
// before the first block and after every block, that a loop whose deadline
// has passed still runs one block, and that a failed pass ends the loop.
func TestTimedLoopTimesAPassBetweenBlocks(t *testing.T) {
	ctx := context.Background()
	inst := &fakeInstance{walls: []time.Duration{time.Second}}
	next := time.Duration(0)
	blocks, passes, err := timedLoop(ctx, inst, time.Now(), func() (time.Duration, error) { next += 10; return next, nil })
	if err != nil {
		t.Fatal(err)
	}
	if len(blocks) != 1 || blocks[0].hwmMB <= 0 || !slices.Equal(passes, []time.Duration{10, 20}) {
		t.Fatalf("one block between two passes: got %+v, passes %v", blocks, passes)
	}
	blocks, _, err = timedLoop(ctx, inst, time.Now().Add(time.Hour), func() (time.Duration, error) {
		if inst.ran == 3 {
			return 0, context.Canceled
		}
		return 1, nil
	})
	if err == nil || blocks != nil || inst.ran != 3 {
		t.Errorf("a failed reference pass must end the loop: got %+v, %v after %d blocks", blocks, err, inst.ran)
	}
}

// TestWallIsReportedInReferencePasses runs the untraced path on a fake
// workload and a fake reference: wall_p50_x is the median wall over the
// median pass, whatever the box does to both.
func TestWallIsReportedInReferencePasses(t *testing.T) {
	ctx := context.Background()
	for _, slow := range []time.Duration{1, 3} { // a box three times slower reads the same
		inst := &fakeInstance{walls: []time.Duration{slow * 400 * time.Millisecond}}
		setups := 0
		setup := func(context.Context, *env) (instance, error) { setups++; return inst, nil }
		ref := func() (time.Duration, error) { return slow * 100 * time.Millisecond, nil }
		res, err := runUntraced(ctx, runOptions{workload: "fake", seconds: 0}, &env{}, setup, ref, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		if setups != setupRounds {
			t.Errorf("set up %d times, want %d", setups, setupRounds)
		}
		if got := res.Metrics["wall_p50_x"]; got.Value != 4 || got.Unit != "x" {
			t.Errorf("box %dx slower: wall_p50_x = %+v, want 4 x", slow, got)
		}
		if !res.Correct || res.Attempted != 1 {
			t.Errorf("result %+v, want one correct iteration", res)
		}
	}
}

// TestRefChildProtocol drives the reference child's loop in process: one
// line in, one pass timed and answered, until the input ends.
func TestRefChildProtocol(t *testing.T) {
	var out bytes.Buffer
	if err := cmdRef(strings.NewReader("\n\n"), &out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 3 || lines[0] != "ready" {
		t.Fatalf("child said %q, want ready and two passes", lines)
	}
	for _, l := range lines[1:] {
		if ns, err := strconv.ParseInt(l, 10, 64); err != nil || ns <= 0 {
			t.Errorf("pass answered %q, want nanoseconds", l)
		}
	}
}

// TestRefWalkIsOneCycle proves the walk visits every word before it
// repeats, so a pass cannot settle into a short cached loop.
func TestRefWalkIsOneCycle(t *testing.T) {
	walk := newRefWalk()
	at, steps := uint32(0), 0
	for {
		at = walk[at]
		steps++
		if at == 0 || steps > refWalkWords {
			break
		}
	}
	if steps != refWalkWords {
		t.Errorf("the walk returns to its start after %d steps, want %d", steps, refWalkWords)
	}
}

// TestReportNamesMatchManifest proves a run can only emit the names the
// manifest lists: a missing or an extra metric is an error, not a result.
func TestReportNamesMatchManifest(t *testing.T) {
	values := map[string]float64{}
	for _, d := range endToEndDefs {
		values[d.Name] = 1
	}
	res, err := report(endToEndDefs, values, 3, 0, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Metrics) != len(endToEndDefs) {
		t.Errorf("emitted %d metrics, manifest lists %d", len(res.Metrics), len(endToEndDefs))
	}
	for _, d := range endToEndDefs {
		if m, ok := res.Metrics[d.Name]; !ok || m.Unit != d.Unit {
			t.Errorf("%s emitted as %+v (present %v), manifest says unit %q", d.Name, m, ok, d.Unit)
		}
	}
	values["extra"] = 1
	if _, err := report(endToEndDefs, values, 3, 0, io.Discard); err == nil {
		t.Error("a metric outside the manifest was reported")
	}
	delete(values, "extra")
	delete(values, "setup_s")
	if _, err := report(endToEndDefs, values, 3, 0, io.Discard); err == nil {
		t.Error("a run without setup_s was reported")
	}
	if res, _ := report(nil, nil, 5, 2, io.Discard); res.Correct || res.Failed != 2 || res.Attempted != 5 {
		t.Errorf("failed iterations must make the run incorrect: %+v", res)
	}
}
