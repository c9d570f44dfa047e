package commuter_test

import (
	"context"
	"io"
	"log/slog"
	"net/http"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/commuter"
)

// scrape fetches /metrics and returns the raw exposition plus a
// series -> value map ("name{labels}" keys).
func scrape(t *testing.T, base string) (string, map[string]float64) {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: %s", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("/metrics Content-Type = %q, want the 0.0.4 text exposition", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	vals := map[string]float64{}
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			vals[line[:i]] = v
		}
	}
	return string(body), vals
}

// TestMetricsExpositionNames pins the metric-name contract: the names and
// types documented in the README's Observability table. Renaming one is a
// dashboard-breaking change and must show up here.
func TestMetricsExpositionNames(t *testing.T) {
	_, srv := newLoopback(t)
	body, _ := scrape(t, srv.URL)
	for _, want := range []string{
		"# TYPE commuter_http_requests_total counter",
		"# TYPE commuter_http_request_seconds histogram",
		"# TYPE commuter_http_requests_inflight gauge",
		"# TYPE commuter_sweeps_inflight gauge",
		"# TYPE commuter_sweep_pairs_total counter",
		"# TYPE commuter_sweep_phase_seconds histogram",
		"# TYPE commuter_cache_testgen_hits_total counter",
		"# TYPE commuter_cache_testgen_misses_total counter",
		"# TYPE commuter_cache_check_hits_total counter",
		"# TYPE commuter_cache_check_misses_total counter",
		"# TYPE commuter_cache_write_errors_total counter",
		"# TYPE commuter_solver_sat_calls_total counter",
		"# TYPE commuter_solver_memo_hits_total counter",
		"# TYPE commuter_solver_budget_exhaustions_total counter",
		"# TYPE commuter_sym_intern_hits_total counter",
		"# TYPE commuter_sym_intern_misses_total counter",
		"# TYPE commuter_sym_intern_entries gauge",
		"# TYPE commuter_go_heap_live_bytes gauge",
		"# TYPE commuter_go_heap_allocs_bytes_total counter",
		"# TYPE commuter_go_gc_cycles_total counter",
		"# TYPE commuter_build_info gauge",
		`commuter_build_info{go_version="` + runtime.Version() + `",cache_version="5",api_version="3"} 1`,
	} {
		if !strings.Contains(body, want+"\n") {
			t.Errorf("exposition is missing %q", want)
		}
	}
}

// TestMetricsMoveWithTraffic pins the counters to the traffic that is
// supposed to move them: a cold sweep bumps misses and computed pairs, an
// identical warm sweep bumps the CHECK tier's hits and cached pairs and
// leaves the TESTGEN tier alone (its cells serve every pair).
// Everything is asserted as a delta — the registry is process-wide and
// other tests share it.
func TestMetricsMoveWithTraffic(t *testing.T) {
	if testing.Short() {
		t.Skip("pipeline in -short mode")
	}
	cli, srv := newLoopback(t, commuter.ServeWithCache(t.TempDir()))
	ctx := context.Background()
	opts := []commuter.Option{commuter.WithSpec("queue"), commuter.WithOpSet("all")}

	_, before := scrape(t, srv.URL)
	cold, err := cli.Sweep(ctx, opts...)
	if err != nil {
		t.Fatal(err)
	}
	_, mid := scrape(t, srv.URL)
	if _, err := cli.Sweep(ctx, opts...); err != nil {
		t.Fatal(err)
	}
	_, after := scrape(t, srv.URL)

	pairs := float64(len(cold.Pairs))
	delta := func(m1, m2 map[string]float64, series string) float64 { return m2[series] - m1[series] }
	for _, tc := range []struct {
		phase    string
		from, to map[string]float64
		series   string
		want     float64
	}{
		{"cold", before, mid, "commuter_cache_testgen_misses_total", pairs},
		{"cold", before, mid, "commuter_cache_check_misses_total", pairs},
		{"cold", before, mid, `commuter_sweep_pairs_total{outcome="computed"}`, pairs},
		{"warm", mid, after, "commuter_cache_testgen_hits_total", 0},
		{"warm", mid, after, "commuter_cache_testgen_misses_total", 0},
		{"warm", mid, after, "commuter_cache_check_hits_total", pairs},
		{"warm", mid, after, `commuter_sweep_pairs_total{outcome="cached"}`, pairs},
	} {
		if got := delta(tc.from, tc.to, tc.series); got != tc.want {
			t.Errorf("%s sweep moved %s by %g, want %g", tc.phase, tc.series, got, tc.want)
		}
	}
	// The cold sweep did symbolic work; the warm one did none.
	for _, series := range []string{"commuter_solver_sat_calls_total", "commuter_solver_memo_hits_total"} {
		if d := delta(before, mid, series); d <= 0 {
			t.Errorf("cold sweep moved %s by %g, want > 0", series, d)
		}
		if d := delta(mid, after, series); d != 0 {
			t.Errorf("warm sweep moved %s by %g, want 0", series, d)
		}
	}
	// Both sweeps finished: nothing in flight at scrape time.
	if v := after["commuter_sweeps_inflight"]; v != 0 {
		t.Errorf("commuter_sweeps_inflight = %g after sweeps completed", v)
	}
	// The HTTP layer counted the sweep requests on their route label. It
	// counts a request once its handler has returned, which the client —
	// holding the terminal frame already — does not wait for.
	const route = `commuter_http_requests_total{route="POST /v1/sweep",code="200"}`
	for deadline := time.Now().Add(5 * time.Second); delta(before, after, route) < 2 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
		_, after = scrape(t, srv.URL)
	}
	if d := delta(before, after, route); d != 2 {
		t.Errorf("sweep route counted %g requests, want 2", d)
	}
}

// TestMetricsCountAllocations pins the runtime gauges to the process: a
// sweep allocates, the heap holds something live, and a cycle count never
// runs backwards.
func TestMetricsCountAllocations(t *testing.T) {
	cli, srv := newLoopback(t)
	_, before := scrape(t, srv.URL)
	if _, err := cli.Sweep(context.Background(), commuter.WithSpec("queue"), commuter.WithOpSet("all")); err != nil {
		t.Fatal(err)
	}
	_, after := scrape(t, srv.URL)
	if d := after["commuter_go_heap_allocs_bytes_total"] - before["commuter_go_heap_allocs_bytes_total"]; d <= 0 {
		t.Errorf("a sweep moved commuter_go_heap_allocs_bytes_total by %g, want > 0", d)
	}
	if v := after["commuter_go_heap_live_bytes"]; v <= 0 {
		t.Errorf("commuter_go_heap_live_bytes = %g, want > 0", v)
	}
	if after["commuter_go_gc_cycles_total"] < before["commuter_go_gc_cycles_total"] {
		t.Errorf("commuter_go_gc_cycles_total ran backwards: %g then %g",
			before["commuter_go_gc_cycles_total"], after["commuter_go_gc_cycles_total"])
	}
}

// TestRequestIDHeader pins the log-correlation handle clients get back.
func TestRequestIDHeader(t *testing.T) {
	_, srv := newLoopback(t)
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if id := resp.Header.Get("X-Request-Id"); len(id) != 16 {
		t.Errorf("X-Request-Id = %q, want a 16-hex-digit id", id)
	}
}

// lockedBuffer is a log sink the serving goroutines write while the test
// reads it.
type lockedBuffer struct {
	mu sync.Mutex
	b  strings.Builder
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// TestRequestIDReachesCachePeer pins log correlation across servers: a
// server keeps a sweep request's well-formed X-Request-Id, and its cache
// peer logs every read and write made for that sweep under the same id; a
// malformed id is replaced by a minted one, which the peer then logs.
func TestRequestIDReachesCachePeer(t *testing.T) {
	if testing.Short() {
		t.Skip("pipeline in -short mode")
	}
	var peerLog lockedBuffer
	_, peer := newLoopback(t, commuter.ServeWithCache(t.TempDir()),
		commuter.ServeWithLogger(slog.New(slog.NewTextHandler(&peerLog, nil))))
	_, front := newLoopback(t, commuter.ServeWithCache(peer.URL),
		commuter.ServeWithLogger(slog.New(slog.NewTextHandler(io.Discard, nil))))

	sweep := func(id string) string {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, front.URL+"/v1/sweep",
			strings.NewReader(`{"version":3,"options":{"ops":"stat,lseek"}}`))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("X-Request-Id", id)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if body, _ := io.ReadAll(resp.Body); resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"type":"result"`) {
			t.Fatalf("sweep: %s\n%s", resp.Status, body)
		}
		return resp.Header.Get("X-Request-Id")
	}
	// The peer logs a request once its handler has returned, which the
	// front server's sweep does not wait for.
	awaitPeer := func(id string, methods ...string) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
			missing := methods
			for _, l := range strings.Split(peerLog.String(), "\n") {
				if strings.Contains(l, "id="+id) && strings.Contains(l, "path=/v1/cache/") {
					missing = slices.DeleteFunc(slices.Clone(missing), func(m string) bool {
						return strings.Contains(l, "method="+m+" ")
					})
				}
			}
			if len(missing) == 0 {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("the cache peer logged no %v request with id %s:\n%s", missing, id, peerLog.String())
			}
		}
	}

	const id = "0123456789abcdef"
	if got := sweep(id); got != id {
		t.Errorf("X-Request-Id %q came back as %q", id, got)
	}
	awaitPeer(id, "GET", "PUT")
	for _, l := range strings.Split(peerLog.String(), "\n") {
		if strings.Contains(l, "path=/v1/cache/") && !strings.Contains(l, "id="+id) {
			t.Errorf("the cold sweep's cache traffic reached the peer under another id: %s", l)
		}
	}

	minted := sweep("0123456789abcdeg")
	if minted == "0123456789abcdeg" || len(minted) != 16 {
		t.Fatalf("a malformed X-Request-Id came back as %q, want a minted 16-hex-digit id", minted)
	}
	awaitPeer(minted, "GET")
}

// TestHealthzUnwritableCache pins the readiness semantics: healthz flips
// to 503 when the cache directory stops being writable, instead of
// reporting a server that would serve every sweep degraded as healthy.
func TestHealthzUnwritableCache(t *testing.T) {
	dir := t.TempDir() + "/cache"
	_, srv := newLoopback(t, commuter.ServeWithCache(dir))

	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz with a writable cache: %s", resp.Status)
	}

	// Removing the directory outright fails CreateTemp for any uid —
	// chmod-based unwritability would not stop root, and tests run as
	// root in some CI containers.
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz with the cache dir gone: %s, want 503\nbody: %s", resp.Status, body)
	}
	if !strings.Contains(string(body), "cache not writable") {
		t.Errorf("503 body does not say why: %s", body)
	}
}

// TestPprofOptIn pins that the profiler is absent by default and mounted
// by ServeWithPprof.
func TestPprofOptIn(t *testing.T) {
	status := func(opts ...commuter.ServerOption) int {
		t.Helper()
		_, srv := newLoopback(t, opts...)
		resp, err := http.Get(srv.URL + "/debug/pprof/")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := status(); got != http.StatusNotFound {
		t.Errorf("pprof without opt-in: %d, want 404", got)
	}
	if got := status(commuter.ServeWithPprof()); got != http.StatusOK {
		t.Errorf("pprof with ServeWithPprof: %d, want 200", got)
	}
}
