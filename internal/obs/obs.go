// Package obs is the repository's telemetry layer: counters, gauges and
// bucketed histograms behind a Registry with Prometheus text exposition,
// plus a Chrome trace-event writer (trace.go) for per-span timelines.
//
// The package is deliberately dependency-free (standard library only) and
// cheap on the hot path: counters and gauges are single atomic operations,
// histogram observations are one atomic per bucket boundary search plus a
// CAS for the sum, and a labeled lookup takes its family's lock once.
// Every layer of the COMMUTER pipeline — the sweep engine, the serve
// endpoint, the solver — records into the process-wide Default registry,
// and `commuter serve` exposes it at /metrics.
//
// Registration is idempotent: asking for a metric that already exists
// with the same shape returns the existing one, so packages can declare
// their metrics in top-level vars without coordinating initialization
// order, and tests can build any number of handlers over one registry.
// Asking for an existing name with a different type, help string, label
// set or bucket layout panics — that is a programming error, not a
// runtime condition.
package obs

import (
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// DefBuckets is the default histogram bucket layout for latencies in
// seconds (the Prometheus convention: tight sub-second resolution, a long
// tail to 10s).
var DefBuckets = []float64{.005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10}

// Counter is a monotonically increasing value.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be non-negative; counters only go up).
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a value that can go up and down.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Inc adds one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram counts observations into cumulative buckets. Observations are
// lock-free; exposition reads may race individual observations (bucket
// counts, sum and count are each atomically consistent, the snapshot as a
// whole is not), which is the standard scrape-time contract.
type Histogram struct {
	bounds  []float64 // sorted upper bounds, exclusive of +Inf
	counts  []atomic.Uint64
	count   atomic.Uint64
	sumBits atomic.Uint64 // float64 bits, CAS-updated
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	// Buckets are few (≈10); a linear scan beats binary search overhead.
	for i, b := range h.bounds {
		if v <= b {
			h.counts[i].Add(1)
			break
		}
	}
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// metric kinds (the TYPE line of the exposition format).
const (
	typeCounter   = "counter"
	typeGauge     = "gauge"
	typeHistogram = "histogram"
)

// series is one labeled instance of a family; exactly one of the value
// fields is non-nil, matching the family's type.
type series struct {
	labelVals []string
	c         *Counter
	g         *Gauge
	h         *Histogram
}

// family is one named metric with all its labeled series.
type family struct {
	name, help, typ string
	labels          []string
	buckets         []float64      // histogram families only
	fn              func() float64 // func-backed families only

	mu     sync.RWMutex
	series map[string]*series
}

// sameShape reports whether a registration request matches the existing
// family exactly.
func (f *family) sameShape(typ, help string, labels []string, buckets []float64, isFn bool) bool {
	return f.typ == typ && f.help == help &&
		slices.Equal(f.labels, labels) && slices.Equal(f.buckets, buckets) &&
		(f.fn != nil) == isFn
}

// get returns the series for the label values, creating it on first use.
// Finding an existing series allocates nothing: the values are joined in a
// stack buffer, and only a new series keeps its key as a string.
func (f *family) get(vals []string) *series {
	if len(vals) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %s wants %d label values, got %d", f.name, len(f.labels), len(vals)))
	}
	var buf [128]byte
	key := buf[:0]
	for i, v := range vals {
		if i > 0 {
			key = append(key, 0)
		}
		key = append(key, v...)
	}
	f.mu.RLock()
	s := f.series[string(key)]
	f.mu.RUnlock()
	if s != nil {
		return s
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if s = f.series[string(key)]; s != nil {
		return s
	}
	s = &series{labelVals: slices.Clone(vals)}
	switch f.typ {
	case typeCounter:
		s.c = &Counter{}
	case typeGauge:
		s.g = &Gauge{}
	case typeHistogram:
		s.h = &Histogram{bounds: f.buckets, counts: make([]atomic.Uint64, len(f.buckets))}
	}
	f.series[string(key)] = s
	return s
}

// Registry holds metric families and renders them in the Prometheus text
// exposition format. The zero value is not usable; use the process-wide
// Default.
type Registry struct {
	mu   sync.RWMutex
	fams map[string]*family
}

// newRegistry returns an empty registry.
func newRegistry() *Registry { return &Registry{fams: make(map[string]*family)} }

// Default is the process-wide registry every pipeline layer records into
// and `commuter serve` exposes at /metrics.
var Default = newRegistry()

// register returns the family, creating it if absent and panicking on a
// shape mismatch with an existing registration.
func (r *Registry) register(name, help, typ string, labels []string, buckets []float64, fn func() float64) *family {
	if name == "" {
		panic("obs: empty metric name")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.fams[name]; ok {
		if !f.sameShape(typ, help, labels, buckets, fn != nil) {
			panic("obs: conflicting registration for metric " + name)
		}
		return f
	}
	f := &family{
		name: name, help: help, typ: typ,
		labels:  slices.Clone(labels),
		buckets: slices.Clone(buckets),
		fn:      fn,
		series:  make(map[string]*series),
	}
	r.fams[name] = f
	return f
}

// Counter returns the unlabeled counter with the given name, registering
// it on first use.
func (r *Registry) Counter(name, help string) *Counter {
	return r.register(name, help, typeCounter, nil, nil, nil).get(nil).c
}

// Gauge returns the unlabeled gauge with the given name.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.register(name, help, typeGauge, nil, nil, nil).get(nil).g
}

// CounterFunc registers a counter whose value is read from fn at scrape
// time — for totals already maintained elsewhere (the sym interner's
// process-wide hit counters). fn must be safe for concurrent use.
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	r.register(name, help, typeCounter, nil, nil, fn)
}

// GaugeFunc registers a gauge read from fn at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.register(name, help, typeGauge, nil, nil, fn)
}

// CounterVec is a counter family with labels.
type CounterVec struct{ f *family }

// CounterVec returns the labeled counter family with the given name.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{r.register(name, help, typeCounter, labels, nil, nil)}
}

// With returns the counter for the label values (one per label, in
// registration order), creating the series on first use.
func (v *CounterVec) With(values ...string) *Counter { return v.f.get(values).c }

// GaugeVec is a gauge family with labels.
type GaugeVec struct{ f *family }

// GaugeVec returns the labeled gauge family with the given name.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{r.register(name, help, typeGauge, labels, nil, nil)}
}

// With returns the gauge for the label values.
func (v *GaugeVec) With(values ...string) *Gauge { return v.f.get(values).g }

// HistogramVec is a histogram family with labels.
type HistogramVec struct{ f *family }

// HistogramVec returns the labeled histogram family with the given name;
// buckets are upper bounds in increasing order (the implicit +Inf bucket
// is always appended at exposition). With no labels, its one series is an
// unlabeled histogram.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	return &HistogramVec{r.register(name, help, typeHistogram, labels, buckets, nil)}
}

// With returns the histogram for the label values.
func (v *HistogramVec) With(values ...string) *Histogram { return v.f.get(values).h }

// WritePrometheus renders every family in the text exposition format
// (version 0.0.4): families sorted by name, series sorted by label
// values, histograms as cumulative _bucket/_sum/_count samples.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.RLock()
	names := make([]string, 0, len(r.fams))
	for name := range r.fams {
		names = append(names, name)
	}
	fams := make([]*family, 0, len(names))
	sort.Strings(names)
	for _, name := range names {
		fams = append(fams, r.fams[name])
	}
	r.mu.RUnlock()

	var b strings.Builder
	for _, f := range fams {
		b.Reset()
		f.write(&b)
		if _, err := io.WriteString(w, b.String()); err != nil {
			return err
		}
	}
	return nil
}

// write renders one family with its HELP/TYPE header.
func (f *family) write(b *strings.Builder) {
	fmt.Fprintf(b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
	fmt.Fprintf(b, "# TYPE %s %s\n", f.name, f.typ)
	if f.fn != nil {
		b.WriteString(f.name)
		b.WriteByte(' ')
		b.WriteString(formatFloat(f.fn()))
		b.WriteByte('\n')
		return
	}

	f.mu.RLock()
	keys := make([]string, 0, len(f.series))
	for k := range f.series {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	sers := make([]*series, 0, len(keys))
	for _, k := range keys {
		sers = append(sers, f.series[k])
	}
	f.mu.RUnlock()

	for _, s := range sers {
		switch f.typ {
		case typeCounter:
			f.sample(b, "", s.labelVals, "", float64(s.c.Value()))
		case typeGauge:
			f.sample(b, "", s.labelVals, "", float64(s.g.Value()))
		case typeHistogram:
			cum := uint64(0)
			for i, bound := range s.h.bounds {
				cum += s.h.counts[i].Load()
				f.sample(b, "_bucket", s.labelVals, formatFloat(bound), float64(cum))
			}
			f.sample(b, "_bucket", s.labelVals, "+Inf", float64(s.h.Count()))
			f.sample(b, "_sum", s.labelVals, "", s.h.Sum())
			f.sample(b, "_count", s.labelVals, "", float64(s.h.Count()))
		}
	}
}

// sample renders one line: name[suffix]{labels,le} value.
func (f *family) sample(b *strings.Builder, suffix string, vals []string, le string, v float64) {
	b.WriteString(f.name)
	b.WriteString(suffix)
	if len(vals) > 0 || le != "" {
		b.WriteByte('{')
		first := true
		for i, lv := range vals {
			if !first {
				b.WriteByte(',')
			}
			first = false
			b.WriteString(f.labels[i])
			b.WriteString(`="`)
			b.WriteString(escapeLabel(lv))
			b.WriteByte('"')
		}
		if le != "" {
			if !first {
				b.WriteByte(',')
			}
			b.WriteString(`le="`)
			b.WriteString(le)
			b.WriteByte('"')
		}
		b.WriteByte('}')
	}
	b.WriteByte(' ')
	b.WriteString(formatFloat(v))
	b.WriteByte('\n')
}

// formatFloat renders a sample value: integers without a fraction, the
// rest in shortest-roundtrip form.
func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeHelp escapes a HELP string (backslash and newline).
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// escapeLabel escapes a label value (backslash, quote, newline).
func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}
