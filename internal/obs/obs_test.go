package obs

import (
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// TestExposition pins the text exposition format for each metric kind on
// a small fixed registry — names, TYPE lines, label rendering, cumulative
// histogram buckets.
func TestExposition(t *testing.T) {
	r := newRegistry()
	r.Counter("test_requests_total", "Total requests.").Add(3)
	r.Gauge("test_inflight", "In-flight requests.").Set(2)
	cv := r.CounterVec("test_hits_total", "Hits by tier.", "tier")
	cv.With("testgen").Add(5)
	cv.With("check").Inc()
	h := r.HistogramVec("test_latency_seconds", "Latency.", []float64{0.1, 1}).With()
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)
	r.GaugeFunc("test_func_gauge", "Func-backed.", func() float64 { return 7.5 })
	r.GaugeVec("test_build_info", "Build labels.", "version", "rev").With("v1", "abc").Set(1)

	var b strings.Builder
	if err := r.writePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP test_build_info Build labels.
# TYPE test_build_info gauge
test_build_info{version="v1",rev="abc"} 1
# HELP test_func_gauge Func-backed.
# TYPE test_func_gauge gauge
test_func_gauge 7.5
# HELP test_hits_total Hits by tier.
# TYPE test_hits_total counter
test_hits_total{tier="check"} 1
test_hits_total{tier="testgen"} 5
# HELP test_inflight In-flight requests.
# TYPE test_inflight gauge
test_inflight 2
# HELP test_latency_seconds Latency.
# TYPE test_latency_seconds histogram
test_latency_seconds_bucket{le="0.1"} 1
test_latency_seconds_bucket{le="1"} 2
test_latency_seconds_bucket{le="+Inf"} 3
test_latency_seconds_sum 5.55
test_latency_seconds_count 3
# HELP test_requests_total Total requests.
# TYPE test_requests_total counter
test_requests_total 3
`
	if got := b.String(); got != want {
		t.Errorf("exposition mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

func TestHistogramVecLabels(t *testing.T) {
	r := newRegistry()
	hv := r.HistogramVec("test_route_seconds", "Per-route latency.", []float64{1}, "route")
	hv.With("/v1/sweep").Observe(0.5)
	hv.With("/v1/sweep").Observe(2)
	var b strings.Builder
	if err := r.writePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`test_route_seconds_bucket{route="/v1/sweep",le="1"} 1`,
		`test_route_seconds_bucket{route="/v1/sweep",le="+Inf"} 2`,
		`test_route_seconds_sum{route="/v1/sweep"} 2.5`,
		`test_route_seconds_count{route="/v1/sweep"} 2`,
	} {
		if !strings.Contains(b.String(), want+"\n") {
			t.Errorf("exposition missing %q:\n%s", want, b.String())
		}
	}
}

// TestIdempotentRegistration: the same name with the same shape returns
// the same metric (package-level declarations must not double-count), and
// a shape change panics.
func TestIdempotentRegistration(t *testing.T) {
	r := newRegistry()
	a := r.Counter("test_total", "Help.")
	b := r.Counter("test_total", "Help.")
	if a != b {
		t.Fatal("same-shape registration returned a different counter")
	}
	a.Inc()
	if b.value() != 1 {
		t.Fatal("re-registered counter does not share state")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("conflicting registration did not panic")
		}
	}()
	r.Gauge("test_total", "Help.")
}

func TestLabelEscaping(t *testing.T) {
	r := newRegistry()
	r.CounterVec("test_esc_total", "Escapes.", "path").With("a\"b\\c\nd").Inc()
	var b strings.Builder
	if err := r.writePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `test_esc_total{path="a\"b\\c\nd"} 1`
	if !strings.Contains(b.String(), want+"\n") {
		t.Errorf("exposition missing %q:\n%s", want, b.String())
	}
}

func TestHandler(t *testing.T) {
	r := newRegistry()
	r.Counter("test_handler_total", "Help.").Inc()
	rec := httptest.NewRecorder()
	Handler(r).ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("content type = %q", ct)
	}
	if !strings.Contains(rec.Body.String(), "test_handler_total 1\n") {
		t.Errorf("body missing sample:\n%s", rec.Body.String())
	}
}

// TestConcurrentRegistry hammers one registry from many goroutines — the
// -race CI job turns any unsynchronized access into a failure — and then
// checks nothing was lost: counters are exact, histogram count/sum agree.
func TestConcurrentRegistry(t *testing.T) {
	r := newRegistry()
	const workers, iters = 16, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := r.Counter("test_conc_total", "Help.")
			cv := r.CounterVec("test_conc_vec_total", "Help.", "worker")
			g := r.Gauge("test_conc_inflight", "Help.")
			h := r.HistogramVec("test_conc_seconds", "Help.", DefBuckets, "phase")
			for i := 0; i < iters; i++ {
				c.Inc()
				cv.With("w").Inc()
				g.Inc()
				g.Dec()
				h.With("analyze").Observe(0.01)
				if i%100 == 0 {
					var b strings.Builder
					r.writePrometheus(&b) // scrape while being written
				}
			}
		}(w)
	}
	wg.Wait()
	if got := r.Counter("test_conc_total", "Help.").value(); got != workers*iters {
		t.Errorf("counter = %d, want %d", got, workers*iters)
	}
	if got := r.CounterVec("test_conc_vec_total", "Help.", "worker").With("w").value(); got != workers*iters {
		t.Errorf("vec counter = %d, want %d", got, workers*iters)
	}
	if got := r.Gauge("test_conc_inflight", "Help.").value(); got != 0 {
		t.Errorf("gauge = %d, want 0", got)
	}
	h := r.HistogramVec("test_conc_seconds", "Help.", DefBuckets, "phase").With("analyze")
	if h.count.Load() != workers*iters {
		t.Errorf("histogram count = %d, want %d", h.count.Load(), workers*iters)
	}
	if want := float64(workers*iters) * 0.01; h.sum() < want*0.999 || h.sum() > want*1.001 {
		t.Errorf("histogram sum = %g, want ≈%g", h.sum(), want)
	}
}
