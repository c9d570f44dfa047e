package commuter

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"time"

	"repro/internal/api"
	"repro/internal/obs"
	"repro/internal/sweep"
	"repro/internal/transport"
)

// ServerOption configures NewServerHandler.
type ServerOption func(*serverOptions)

type serverOptions struct {
	cacheSpec string
	backend   sweep.Backend
	workers   int
	logger    *slog.Logger
	pprof     bool
	fleetURL  string
}

// ServeWithCache hosts the two-tier sweep cache described by spec behind
// every sweep the handler serves: one shared handle, so concurrent
// clients' sweeps serve and warm the same entries, and per-request
// results report per-request hit/miss statistics. The spec is anything
// sweep.OpenBackend accepts — a directory path (or "dir:PATH"), "mem[:N]"
// for a bounded in-memory LRU, an http(s) URL naming a peer server's
// shared cache, or a comma list layering tiers fastest-first.
func ServeWithCache(spec string) ServerOption {
	return func(o *serverOptions) { o.cacheSpec = spec }
}

// ServeWithBackend hosts an already-open cache backend behind every sweep
// the handler serves; it takes precedence over ServeWithCache. Use it to
// share one handle with the rest of the process, or to inject a backend
// composition OpenBackend syntax cannot express.
func ServeWithBackend(b SweepBackend) ServerOption {
	return func(o *serverOptions) { o.backend = b }
}

// ServeWithWorkers sets the server's worker-pool size (the default is one
// worker per server CPU): sweep requests that do not specify a worker
// count run on the whole pool, and a request asking for more is clamped to
// it — a client cannot size the server's goroutine pool.
func ServeWithWorkers(n int) ServerOption {
	return func(o *serverOptions) { o.workers = n }
}

// ServeWithLogger routes the handler's structured request logs through
// log; the default is slog.Default(). Every request logs one line at
// Info with its generated request id (also returned to the client in the
// X-Request-Id response header), method, route, status and duration.
func ServeWithLogger(log *slog.Logger) ServerOption {
	return func(o *serverOptions) { o.logger = log }
}

// ServeWithPprof additionally mounts the runtime profiler under
// /debug/pprof/ (index, cmdline, profile, symbol, trace and the named
// runtime profiles). Off by default: the endpoints expose goroutine
// stacks and CPU time to anyone who can reach the port, so opt in only
// where the listener is trusted.
func ServeWithPprof() ServerOption {
	return func(o *serverOptions) { o.pprof = true }
}

// ServeWithFleet makes every sweep this server runs a fleet member
// coordinated by the server at coordinatorURL: instead of executing the
// full pair list locally, the sweep claims pair leases from the
// coordinator, executes only those, and merges the fleet-wide matrix.
// Point N servers at one coordinator (which may be one of the N — a
// server is always willing to coordinate, the flag only changes whose
// table it works from) and a sweep submitted to each computes every pair
// exactly once fleet-wide. Pair cells flow into the coordinator's shared
// cache, so combine this with ServeWithCache pointing at the same
// backend for warm restarts.
func ServeWithFleet(coordinatorURL string) ServerOption {
	return func(o *serverOptions) { o.fleetURL = coordinatorURL }
}

// NewServerHandler returns the HTTP side of the wire contract: an
// http.Handler exposing backend under the versioned JSON API that Dial
// speaks (analyze/testgen/check as request-response, sweeps as NDJSON
// streams, plus spec discovery and a health endpoint).
//
// The backend is any Client, normally Local(). A Dial client makes the
// handler a proxy only while no cache or fleet is configured here: with
// ServeWithCache, ServeWithBackend or ServeWithFleet the handler passes
// its sweeps options a Dial client rejects (those belong to the server it
// dials). Request contexts are passed straight through, so a client
// hangup cancels the backend work it started.
func NewServerHandler(backend Client, opts ...ServerOption) (http.Handler, error) {
	var so serverOptions
	for _, f := range opts {
		f(&so)
	}
	s := &server{backend: backend, cache: so.backend, workers: so.workers, log: so.logger, fleetURL: so.fleetURL}
	if s.log == nil {
		s.log = slog.Default()
	}
	if s.cache == nil && so.cacheSpec != "" {
		var err error
		if s.cache, err = sweep.OpenBackend(so.cacheSpec); err != nil {
			return nil, err
		}
	}
	// Every server is willing to coordinate — the hub costs nothing until
	// a worker claims — so which instance coordinates a given sweep is
	// purely the fleet's choice of URL, not a deployment-time role.
	s.hub = sweep.NewFleetHub(0, nil)
	mux := http.NewServeMux()
	mux.HandleFunc("GET "+api.PathHealth, s.health)
	mux.HandleFunc("GET "+api.PathSpecs, s.specs)
	mux.HandleFunc("POST "+api.PathAnalyze, s.analyze)
	mux.HandleFunc("POST "+api.PathTestgen, s.testgen)
	mux.HandleFunc("POST "+api.PathCheck, s.check)
	mux.HandleFunc("POST "+api.PathSweep, s.sweep)
	mux.HandleFunc("GET "+sweep.CacheRoutePrefix+"/{tier}/{key}", s.cacheGet)
	mux.HandleFunc("PUT "+sweep.CacheRoutePrefix+"/{tier}/{key}", s.cachePut)
	mux.HandleFunc("POST "+api.PathFleetClaim, s.fleetClaim)
	mux.HandleFunc("POST "+api.PathFleetResult, s.fleetResult)
	mux.HandleFunc("GET "+api.PathFleetStatus, s.fleetStatus)
	mux.Handle("GET "+api.PathMetrics, obs.Handler(obs.Default))
	if so.pprof {
		// Mounted on this mux explicitly (the pprof package's init only
		// touches http.DefaultServeMux, which this handler never serves).
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return s.instrument(mux), nil
}

type server struct {
	backend  Client
	cache    sweep.Backend
	workers  int
	log      *slog.Logger
	hub      *sweep.FleetHub
	fleetURL string
}

// HTTP-layer metrics, shared by every handler in the process so a scrape
// of any one listener sees the process's whole serving picture.
var (
	metricHTTPRequests = obs.Default.CounterVec(
		"commuter_http_requests_total",
		"Completed HTTP requests by mux route and status code.",
		"route", "code")
	metricHTTPSeconds = obs.Default.HistogramVec(
		"commuter_http_request_seconds",
		"HTTP request wall time by mux route, including streaming time.",
		obs.DefBuckets, "route")
	metricHTTPInflight = obs.Default.Gauge(
		"commuter_http_requests_inflight",
		"HTTP requests currently being served.")
)

// The Go runtime's own allocation record, read from runtime/metrics at
// scrape time, and what the process was built as.
func init() {
	obs.Default.GaugeFunc("commuter_go_heap_live_bytes",
		"Heap bytes the last garbage collection found live.", runtimeMetric("/gc/heap/live:bytes"))
	obs.Default.CounterFunc("commuter_go_heap_allocs_bytes_total",
		"Bytes allocated on the heap since the process started.", runtimeMetric("/gc/heap/allocs:bytes"))
	obs.Default.CounterFunc("commuter_go_gc_cycles_total",
		"Completed garbage-collection cycles.", runtimeMetric("/gc/cycles/total:gc-cycles"))
	obs.Default.GaugeVec("commuter_build_info",
		"Always 1; the labels name the Go release, the cache entry version and the wire API version this process runs.",
		"go_version", "cache_version", "api_version").
		With(runtime.Version(), strconv.Itoa(sweep.CacheVersion), strconv.Itoa(api.Version)).Set(1)
}

// runtimeMetric reads one unsigned runtime/metrics sample.
func runtimeMetric(name string) func() float64 {
	return func() float64 {
		s := []metrics.Sample{{Name: name}}
		metrics.Read(s)
		if s[0].Value.Kind() != metrics.KindUint64 {
			return 0 // a name this Go release does not know
		}
		return float64(s[0].Value.Uint64())
	}
}

// statusWriter records the response status for logs and metrics. Unwrap
// keeps http.NewResponseController working through the wrapper — the
// sweep handler's per-frame Flush depends on it.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// requestID is r's id for log correlation: the caller's own X-Request-Id
// when it is 16 hex digits (a peer server relaying its request's id), else
// a freshly minted random one.
func requestID(r *http.Request) string {
	id := r.Header.Get(transport.RequestIDHeader)
	if _, err := hex.DecodeString(id); err == nil && len(id) == 16 {
		return id
	}
	var b [8]byte
	rand.Read(b[:]) // never fails post-Go 1.24; worst case is a zero id
	return hex.EncodeToString(b[:])
}

// instrument wraps the routed mux with the observability envelope: the
// API version header, a per-request id (echoed in X-Request-Id and carried
// on the request context, so the outbound calls made for the request send
// it too), request metrics labeled by mux route, and one structured log
// line per request.
func (s *server) instrument(mux *http.ServeMux) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		id := requestID(r)
		r = r.WithContext(transport.WithRequestID(r.Context(), id))
		w.Header().Set(api.VersionHeader, fmt.Sprint(api.Version))
		w.Header().Set(transport.RequestIDHeader, id)
		sw := &statusWriter{ResponseWriter: w}
		metricHTTPInflight.Inc()
		// Deferred: net/http recovers a handler's panic and the process
		// lives on, so a Dec that ServeHTTP must reach would leak the gauge.
		defer metricHTTPInflight.Dec()
		mux.ServeHTTP(sw, r)

		// The mux stamped the matched pattern onto the request; an empty
		// pattern is a 404/405, bucketed together so unmatched paths
		// cannot mint unbounded label values.
		route := r.Pattern
		if route == "" {
			route = "unmatched"
		}
		status := sw.status
		if status == 0 {
			status = http.StatusOK // handler wrote nothing at all
		}
		elapsed := time.Since(start)
		metricHTTPRequests.With(route, strconv.Itoa(status)).Inc()
		metricHTTPSeconds.With(route).Observe(elapsed.Seconds())
		s.log.LogAttrs(r.Context(), slog.LevelInfo, "http request",
			slog.String("id", id),
			slog.String("method", r.Method),
			slog.String("path", r.URL.Path),
			slog.String("route", route),
			slog.Int("status", status),
			slog.Duration("elapsed", elapsed),
			slog.String("remote", r.RemoteAddr))
	})
}

// maxRequestBytes bounds request bodies (check requests carry whole test
// sets; 64 MiB is two orders of magnitude above the full 18-op corpus).
const maxRequestBytes = 64 << 20

// decodeRequest parses the body, which must be exactly one JSON value, and
// enforces the wire version; version is the request's own stamp. It writes
// the error response itself when it returns false.
func decodeRequest(w http.ResponseWriter, r *http.Request, req any, version func() int) bool {
	r.Body = http.MaxBytesReader(w, r.Body, maxRequestBytes)
	dec := json.NewDecoder(r.Body)
	if err := dec.Decode(req); err != nil {
		writeError(w, api.Errorf(api.CodeBadRequest, "malformed request: %v", err))
		return false
	}
	if _, err := dec.Token(); err != io.EOF {
		writeError(w, api.Errorf(api.CodeBadRequest, "malformed request: data after the request's JSON value"))
		return false
	}
	if err := api.CheckVersion(version()); err != nil {
		writeError(w, err)
		return false
	}
	return true
}

// writeError maps a wire error to its status code and writes it.
func writeError(w http.ResponseWriter, ae *api.Error) {
	status := http.StatusInternalServerError
	switch ae.Code {
	case api.CodeBadRequest, api.CodeVersionMismatch:
		status = http.StatusBadRequest
	case api.CodeCanceled:
		// Non-standard but conventional "client closed request"; the
		// client is usually gone and never sees it.
		status = 499
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(ae)
}

// wireError normalizes any backend error into its wire form.
func wireError(ctx context.Context, err error) *api.Error {
	var ae *api.Error
	if errors.As(err, &ae) {
		return ae
	}
	if ctx.Err() != nil || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return api.Errorf(api.CodeCanceled, "%v", err)
	}
	return api.Errorf(api.CodeInternal, "%v", err)
}

// writeResult writes a successful JSON response, or the error mapped to
// its wire form.
func writeResult(w http.ResponseWriter, r *http.Request, v any, err error) {
	if err != nil {
		writeError(w, wireError(r.Context(), err))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

// health reports readiness, not just liveness: a server whose cache
// backend has stopped accepting writes (disk full, volume unmounted,
// peer down) would serve every sweep degraded — cold and non-incremental
// — so it answers 503 and lets the orchestrator rotate it out instead of
// answering an unconditional 200. What "writable" means is the backend's
// call: the disk backend probes a temp-file create, an HTTP backend
// probes its peer's own /healthz, a tiered stack requires every tier.
func (s *server) health(w http.ResponseWriter, r *http.Request) {
	if s.cache != nil {
		if err := s.cache.Ready(); err != nil {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusServiceUnavailable)
			json.NewEncoder(w).Encode(map[string]any{
				"status": "unhealthy", "api_version": api.Version,
				"error": err.Error(),
			})
			return
		}
	}
	writeResult(w, r, map[string]any{"status": "ok", "api_version": api.Version}, nil)
}

// cacheEntryKey validates a cache route's path parts. Keys are content
// addresses (lowercase hex SHA-256), so anything else — and any tier but
// the two known ones — is a malformed request, which also rules out path
// escapes before a key ever reaches a backend.
func cacheEntryKey(w http.ResponseWriter, r *http.Request) (tier, key string, ok bool) {
	tier, key = r.PathValue("tier"), r.PathValue("key")
	if tier != sweep.TierTestgen && tier != sweep.TierCheck {
		writeError(w, api.Errorf(api.CodeBadRequest, "unknown cache tier %q (known: %s, %s)",
			tier, sweep.TierTestgen, sweep.TierCheck))
		return "", "", false
	}
	if len(key) != 64 || strings.IndexFunc(key, func(c rune) bool {
		return !(c >= '0' && c <= '9' || c >= 'a' && c <= 'f')
	}) != -1 {
		writeError(w, api.Errorf(api.CodeBadRequest, "malformed cache key %q", key))
		return "", "", false
	}
	return tier, key, true
}

// cacheGet serves one cache entry in its canonical on-disk encoding; a
// miss (including any decode defect below) is a 404. Together with
// cachePut this is what sweep.NewHTTPBackend speaks, letting a fleet of
// servers share this instance's cache.
func (s *server) cacheGet(w http.ResponseWriter, r *http.Request) {
	if s.cache == nil {
		writeError(w, api.Errorf(api.CodeBadRequest, "this server hosts no cache (start it with -cache)"))
		return
	}
	tier, key, ok := cacheEntryKey(w, r)
	if !ok {
		return
	}
	var (
		data []byte
		err  error
		hit  bool
	)
	switch tier {
	case sweep.TierTestgen:
		if tests, found := s.cache.GetTests(key); found {
			data, err = sweep.EncodeTestsEntry(key, tests)
			hit = true
		}
	case sweep.TierCheck:
		if cell, found := s.cache.GetCell(key); found {
			data, err = sweep.EncodeCellEntry(key, *cell)
			hit = true
		}
	}
	if err != nil {
		writeError(w, api.Errorf(api.CodeInternal, "encode cache entry: %v", err))
		return
	}
	if !hit {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusNotFound)
		json.NewEncoder(w).Encode(api.Errorf(api.CodeBadRequest, "no %s entry for %s", tier, key))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(data)
}

// cachePut stores one cache entry. The body must be the canonical entry
// encoding for this key — the same self-validating format the disk
// backend stores — so a corrupt, stale-version or mis-keyed body is a
// 400, never a stored entry.
func (s *server) cachePut(w http.ResponseWriter, r *http.Request) {
	if s.cache == nil {
		writeError(w, api.Errorf(api.CodeBadRequest, "this server hosts no cache (start it with -cache)"))
		return
	}
	tier, key, ok := cacheEntryKey(w, r)
	if !ok {
		return
	}
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	if err != nil {
		writeError(w, api.Errorf(api.CodeBadRequest, "read cache entry: %v", err))
		return
	}
	switch tier {
	case sweep.TierTestgen:
		tests, valid := sweep.DecodeTestsEntry(key, data)
		if !valid {
			writeError(w, api.Errorf(api.CodeBadRequest, "body is not a valid %s entry for %s", tier, key))
			return
		}
		err = s.cache.PutTests(key, tests)
	case sweep.TierCheck:
		cell, valid := sweep.DecodeCellEntry(key, data)
		if !valid {
			writeError(w, api.Errorf(api.CodeBadRequest, "body is not a valid %s entry for %s", tier, key))
			return
		}
		err = s.cache.PutCell(key, *cell)
	}
	if err != nil {
		writeError(w, api.Errorf(api.CodeInternal, "store cache entry: %v", err))
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// fleetClaim serves the coordinator side of fleet lease claims. Hub
// errors here are usage errors (a claim naming no worker or no ops), so
// they map to bad requests rather than server faults.
func (s *server) fleetClaim(w http.ResponseWriter, r *http.Request) {
	var req api.FleetClaimRequest
	if !decodeRequest(w, r, &req, func() int { return req.Version }) {
		return
	}
	resp, err := s.hub.Claim(req)
	if err != nil {
		writeError(w, api.Errorf(api.CodeBadRequest, "%v", err))
		return
	}
	writeResult(w, r, resp, nil)
}

// fleetResult accepts completed pairs from fleet workers and writes
// their cells through the shared cache. Posting into an unknown session
// (coordinator restarted, or never claimed from) is a bad request: the
// worker's next claim rebuilds the session and the pairs re-run.
func (s *server) fleetResult(w http.ResponseWriter, r *http.Request) {
	var req api.FleetResultRequest
	if !decodeRequest(w, r, &req, func() int { return req.Version }) {
		return
	}
	resp, err := s.hub.Report(req)
	if err != nil {
		writeError(w, api.Errorf(api.CodeBadRequest, "%v", err))
		return
	}
	writeResult(w, r, resp, nil)
}

// fleetStatus reports one fleet sweep's progress; ?sweep= carries the
// JSON FleetSweepSpec and ?results=1 asks for the merged PairResults
// once the sweep is done.
func (s *server) fleetStatus(w http.ResponseWriter, r *http.Request) {
	var sw api.FleetSweepSpec
	if err := json.Unmarshal([]byte(r.URL.Query().Get("sweep")), &sw); err != nil {
		writeError(w, api.Errorf(api.CodeBadRequest, "fleet: malformed sweep parameter: %v", err))
		return
	}
	resp, err := s.hub.Status(sw, r.URL.Query().Get("results") == "1")
	if err != nil {
		writeError(w, api.Errorf(api.CodeBadRequest, "%v", err))
		return
	}
	writeResult(w, r, resp, nil)
}

func (s *server) specs(w http.ResponseWriter, r *http.Request) {
	specs, err := s.backend.Specs(r.Context())
	if err != nil {
		writeError(w, wireError(r.Context(), err))
		return
	}
	writeResult(w, r, api.SpecsResponse{Version: api.Version, Specs: specs}, nil)
}

func (s *server) analyze(w http.ResponseWriter, r *http.Request) {
	var req api.AnalyzeRequest
	if !decodeRequest(w, r, &req, func() int { return req.Version }) {
		return
	}
	out, err := s.backend.Analyze(r.Context(), req.OpA, req.OpB, withWire(req.Options))
	writeResult(w, r, out, err)
}

func (s *server) testgen(w http.ResponseWriter, r *http.Request) {
	var req api.TestgenRequest
	if !decodeRequest(w, r, &req, func() int { return req.Version }) {
		return
	}
	out, err := s.backend.GenerateTests(r.Context(), req.OpA, req.OpB, withWire(req.Options))
	writeResult(w, r, out, err)
}

func (s *server) check(w http.ResponseWriter, r *http.Request) {
	var req api.CheckRequest
	if !decodeRequest(w, r, &req, func() int { return req.Version }) {
		return
	}
	out, err := s.backend.Check(r.Context(), req.Kernel, req.Tests, withWire(req.Options))
	writeResult(w, r, out, err)
}

// sweep streams a sweep as NDJSON frames, flushing after every frame so a
// watching client sees pairs as they finish. The terminal frame is always
// a "result" or an "error"; a connection that drops beforehand reads as a
// truncated stream client-side.
func (s *server) sweep(w http.ResponseWriter, r *http.Request) {
	var req api.SweepRequest
	if !decodeRequest(w, r, &req, func() int { return req.Version }) {
		return
	}
	opts := []Option{withWire(req.Options)}
	if s.cache != nil {
		opts = append(opts, WithCacheBackend(s.cache))
	}
	pool := s.workers
	if pool <= 0 {
		pool = runtime.NumCPU()
	}
	if w := req.Options.Workers; w <= 0 || w > pool {
		opts = append(opts, WithWorkers(pool))
	}
	if s.fleetURL != "" {
		opts = append(opts, WithFleet(s.fleetURL))
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	enc := json.NewEncoder(w)
	rc := http.NewResponseController(w)
	emit := func(fr api.Frame) bool {
		if err := enc.Encode(fr); err != nil {
			return false // client gone; the request context will cancel
		}
		rc.Flush()
		return true
	}
	for upd, err := range s.backend.SweepStream(r.Context(), opts...) {
		if err != nil {
			emit(api.Frame{Type: api.FrameError, Error: wireError(r.Context(), err)})
			return
		}
		var fr api.Frame
		if upd.Result != nil {
			fr = api.Frame{Type: api.FrameResult, Result: api.ResultFromSweep(upd.Result, s.cache != nil)}
		} else {
			fr = api.Frame{Type: api.FrameUpdate, Pair: upd.Pair}
			if upd.Progress != nil {
				fr.Progress = api.ProgressFromEvent(*upd.Progress)
			}
		}
		if !emit(fr) {
			return
		}
	}
}
