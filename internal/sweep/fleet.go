// Fleet mode: pair-space sharding with work stealing across servers.
//
// The sweep is embarrassingly parallel across its deterministic pair
// list, and PR 7's shared cache already deduplicates *results* — but N
// servers given the same sweep still burned N× the solver time racing to
// produce one matrix. Fleet mode shards the computation itself: a
// coordinator (any `commuter serve` instance, selected by the client)
// partitions the pair list into leases, and every participating server
// runs a pull loop that claims a batch, executes it through the ordinary
// runPair path, reports the finished PairResults back, and — when the
// pending queue runs dry — steals the tail by re-claiming leases whose
// TTL expired. A dead or slow peer therefore never wedges the sweep: its
// leases expire and are re-issued to whoever is still pulling.
//
// The pieces live here, in internal/sweep, for the same reason the cache
// route does (internal/api imports this package): the wire types are
// defined next to the scheduler and aliased into api for golden pinning.
//
//   - FleetSweepSpec: the deterministic identity of one fleet-wide sweep
//     (spec, resolved op/kernel names, every settable test-shaping
//     option). Its Key() names the coordinator session; its PairNames()
//     is the work list, in the exact orientation Pairs() uses.
//   - FleetTable: one sweep's lease table (pending → leased → done, TTL
//     expiry, idempotent completion). Time is injected for tests.
//   - FleetHub: the coordinator — a keyed collection of tables.
//   - FleetClient: the worker side of the protocol, implemented in
//     process (localFleet) and over HTTP (NewHTTPFleetClient).
//   - RunFleet (fleet_run.go): the worker pull loop.
package sweep

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/pins"
	"repro/internal/spec"
)

// FleetAPIVersion stamps fleet requests; it tracks api.Version (asserted
// by an api test) so the whole wire surface versions together.
const FleetAPIVersion = 4

// Fleet coordination routes, served by `commuter serve` next to the cache
// routes. Versioned like every other endpoint.
const (
	fleetRoutePrefix = "/v1/fleet"
	FleetClaimPath   = fleetRoutePrefix + "/claim"
	FleetResultPath  = fleetRoutePrefix + "/result"
	FleetStatusPath  = fleetRoutePrefix + "/status"
)

// defaultFleetTTL is the lease time-to-live when the coordinator does not
// override it: long enough that no healthy pair (hundreds of ms) expires
// under its worker even with renewal hiccups, short enough that a dead
// peer's share is stolen within one human attention span.
const defaultFleetTTL = 30 * time.Second

// FleetSweepSpec is the fleet-wide identity of one sweep: the spec, the
// resolved operation and kernel names (order preserved — it fixes the
// pair orientation and the cell order), and every settable option that
// shapes the generated tests. Two clients whose specs hash to the same Key
// join the same coordinator session and compute one matrix between them.
type FleetSweepSpec struct {
	Spec    string   `json:"spec"`
	Ops     []string `json:"ops"`
	Kernels []string `json:"kernels"`
	// The settable test-shaping options. The path cap is not one: a
	// fleet sweep explores up to symx.DefaultMaxPaths, and Key renders
	// that cap as TestgenKey renders a zero one.
	LowestFD        bool `json:"lowest_fd,omitempty"`
	MaxTestsPerPath int  `json:"max_tests_per_path,omitempty"`
}

// Key derives the coordinator session's content address. It renders the
// test-shaping options as TestgenKey does, so semantically identical
// configurations join one session, and folds in CacheVersion and the root
// pins of the spec and of every kernel, so servers whose verdicts differ
// never share a table.
func (s FleetSweepSpec) Key() string { return s.key(pins.Current) }

func (s FleetSweepSpec) key(p pins.Table) string {
	b := fmt.Appendf(nil, "fleetv%d|cache=v%d|spec=%s|ops=%s|kernels=%s",
		FleetAPIVersion, CacheVersion, s.Spec, strings.Join(s.Ops, ","), strings.Join(s.Kernels, ","))
	b = append(appendShape(b, s.LowestFD, 0, s.MaxTestsPerPath), p.Pin(pins.Key{Spec: s.Spec})...)
	for _, k := range s.Kernels {
		b = append(b, p.Pin(pins.Key{Impl: k})...)
	}
	return hashKey(b)
}

// PairNames enumerates the work list in the exact orientation Pairs()
// uses (earlier op first), so the coordinator — which reads the spec only
// to validate a new session — and every worker agree on pair naming and
// ordering.
func (s FleetSweepSpec) PairNames() []string {
	pairs := pairsOf(s.Ops)
	out := make([]string, len(pairs))
	for i, p := range pairs {
		out[i] = p[0] + "/" + p[1]
	}
	return out
}

// validate checks a sweep identity that arrived in a request before a
// table is built from it: the spec must be registered and the ops distinct
// operations of it, which bounds the table by the spec's own pair count
// whatever the request names, and no cap may be below zero.
func (s FleetSweepSpec) validate() error {
	if s.MaxTestsPerPath < 0 {
		return fmt.Errorf("fleet: a cap below 0: max_tests_per_path %d (0 means the default)", s.MaxTestsPerPath)
	}
	sp, err := spec.Lookup(s.Spec)
	if err != nil {
		return fmt.Errorf("fleet: %w", err)
	}
	seen := map[string]bool{}
	for _, name := range s.Ops {
		if _, err := spec.OpByName(sp, name); err != nil {
			return fmt.Errorf("fleet: %w", err)
		}
		if seen[name] {
			return fmt.Errorf("fleet: sweep names %s op %q twice", s.Spec, name)
		}
		seen[name] = true
	}
	return nil
}

// FleetLease is one granted pair lease.
type FleetLease struct {
	// Pair is the pair name ("opA/opB" in canonical orientation).
	Pair string `json:"pair"`
	// ID names this grant; renewal, release and completion all quote it.
	ID string `json:"id"`
	// Stolen marks a re-issue: the pair's previous lease expired (or was
	// released) under another worker.
	Stolen bool `json:"stolen,omitempty"`
}

// FleetClaimRequest asks the coordinator for up to Max pair leases, and
// piggybacks lease maintenance: Renew extends the TTL of leases this
// worker still holds, Release returns leases it will not finish (a
// canceling worker requeues its claims this way instead of letting them
// dangle until expiry). Max 0 with Renew/Release set is a pure heartbeat.
type FleetClaimRequest struct {
	Version int            `json:"version"`
	Worker  string         `json:"worker"`
	Max     int            `json:"max"`
	Sweep   FleetSweepSpec `json:"sweep"`
	Renew   []string       `json:"renew,omitempty"`
	Release []string       `json:"release,omitempty"`
}

// FleetClaimResponse grants leases and reports the sweep-wide state.
type FleetClaimResponse struct {
	SweepID   string       `json:"sweep_id"`
	Leases    []FleetLease `json:"leases,omitempty"`
	TTLMS     float64      `json:"ttl_ms"`
	Total     int          `json:"total"`
	Completed int          `json:"completed"`
	Pending   int          `json:"pending"`
	Leased    int          `json:"leased"`
	Done      bool         `json:"done,omitempty"`
}

// FleetPairDone is one completed pair: the lease it was executed under
// and the full result. The coordinator stores nothing a worker posts;
// members share a cache, and the worker's own run already wrote both
// tiers.
type FleetPairDone struct {
	Lease string     `json:"lease"`
	Pair  PairResult `json:"pair"`
}

// FleetResultRequest posts completed pairs to the coordinator.
type FleetResultRequest struct {
	Version int             `json:"version"`
	Worker  string          `json:"worker"`
	Sweep   FleetSweepSpec  `json:"sweep"`
	Results []FleetPairDone `json:"results"`
}

// FleetResultResponse acknowledges a result post. Duplicate counts pairs
// that were already complete (a slow worker finishing after the thief —
// first completion wins, results are deterministic either way); Stale
// counts results for pairs the session does not contain.
type FleetResultResponse struct {
	Accepted  int  `json:"accepted"`
	Duplicate int  `json:"duplicate,omitempty"`
	Stale     int  `json:"stale,omitempty"`
	Completed int  `json:"completed"`
	Total     int  `json:"total"`
	Done      bool `json:"done,omitempty"`
}

// FleetWorkerStatus is one worker's view in the status report.
type FleetWorkerStatus struct {
	// Leased counts leases currently held.
	Leased int `json:"leased"`
	// Completed counts pairs this worker completed.
	Completed int `json:"completed"`
	// Stolen counts re-issued (expired or released) leases this worker
	// picked up.
	Stolen int `json:"stolen,omitempty"`
}

// FleetStatusResponse answers GET FleetStatusPath.
type FleetStatusResponse struct {
	SweepID   string                       `json:"sweep_id"`
	Total     int                          `json:"total"`
	Completed int                          `json:"completed"`
	Pending   int                          `json:"pending"`
	Leased    int                          `json:"leased"`
	Requeued  int                          `json:"requeued,omitempty"`
	Done      bool                         `json:"done,omitempty"`
	Workers   map[string]FleetWorkerStatus `json:"workers,omitempty"`
	// Results carries every completed PairResult when requested
	// (?results=1) and the sweep is done.
	Results []PairResult `json:"results,omitempty"`
}

// fleetPair is one pair's scheduling state: pending (cur == nil, not
// done), leased (cur set), or done (result recorded, cur cleared).
type fleetPair struct {
	name   string
	done   bool
	result PairResult
	cur    *fleetLease
	leased int // grants ever issued, to mark re-issues as stolen
}

type fleetLease struct {
	id      string
	pair    string
	worker  string
	expires time.Time
}

// FleetTable is one sweep's lease table. All methods are safe for
// concurrent use. Time is injected (now) so expiry is testable with a
// fake clock; nil means time.Now.
type FleetTable struct {
	mu      sync.Mutex
	id      string
	ttl     time.Duration
	now     func() time.Time
	order   []string
	pairs   map[string]*fleetPair
	leases  map[string]*fleetLease
	workers map[string]*FleetWorkerStatus
	done    int
	requeue int
	seq     int
}

// NewFleetTable builds the table for one sweep: id names the session
// (FleetSweepSpec.Key), pairs is the deterministic work list, ttl bounds
// how long an unrenewed lease shields its pair from stealing.
func NewFleetTable(id string, pairs []string, ttl time.Duration, now func() time.Time) *FleetTable {
	if ttl <= 0 {
		ttl = defaultFleetTTL
	}
	if now == nil {
		now = time.Now
	}
	t := &FleetTable{
		id:      id,
		ttl:     ttl,
		now:     now,
		order:   append([]string(nil), pairs...),
		pairs:   make(map[string]*fleetPair, len(pairs)),
		leases:  map[string]*fleetLease{},
		workers: map[string]*FleetWorkerStatus{},
	}
	for _, p := range t.order {
		t.pairs[p] = &fleetPair{name: p}
	}
	return t
}

func (t *FleetTable) worker(name string) *FleetWorkerStatus {
	w := t.workers[name]
	if w == nil {
		w = &FleetWorkerStatus{}
		t.workers[name] = w
	}
	return w
}

// dropLease detaches a pair's current lease (completion, release or
// steal) and keeps the holder's gauge honest.
func (t *FleetTable) dropLease(p *fleetPair) {
	l := p.cur
	if l == nil {
		return
	}
	p.cur = nil
	delete(t.leases, l.id)
	t.worker(l.worker).Leased--
	metricFleetPairsLeased.Dec()
}

func (t *FleetTable) grant(p *fleetPair, workerName string) FleetLease {
	t.seq++
	l := &fleetLease{
		id:      fmt.Sprintf("%.8s.%d", t.id, t.seq),
		pair:    p.name,
		worker:  workerName,
		expires: t.now().Add(t.ttl),
	}
	stolen := p.leased > 0
	p.leased++
	p.cur = l
	t.leases[l.id] = l
	w := t.worker(workerName)
	w.Leased++
	metricFleetPairsLeased.Inc()
	metricFleetLeasesIssued.Inc()
	if stolen {
		w.Stolen++
		metricFleetSteals.Inc()
	}
	return FleetLease{Pair: p.name, ID: l.id, Stolen: stolen}
}

// Claim processes renewals and releases, then grants up to req.Max
// leases: pending pairs head-first, then — only when pending runs dry —
// expired leases tail-first (the steal path, so two workers draining the
// tail approach each other instead of colliding at the head). A pair
// whose lease is live is never double-granted.
func (t *FleetTable) Claim(req FleetClaimRequest) FleetClaimResponse {
	t.mu.Lock()
	defer t.mu.Unlock()
	now := t.now()

	for _, id := range req.Renew {
		if l := t.leases[id]; l != nil && l.worker == req.Worker {
			l.expires = now.Add(t.ttl)
		}
	}
	for _, id := range req.Release {
		l := t.leases[id]
		if l == nil || l.worker != req.Worker {
			continue
		}
		p := t.pairs[l.pair]
		if p == nil || p.done || p.cur != l {
			continue
		}
		t.dropLease(p)
		t.requeue++
		metricFleetRequeues.Inc()
	}

	resp := FleetClaimResponse{
		SweepID: t.id,
		TTLMS:   float64(t.ttl) / float64(time.Millisecond),
	}
	for i := 0; i < len(t.order) && len(resp.Leases) < req.Max; i++ {
		p := t.pairs[t.order[i]]
		if p.done || p.cur != nil {
			continue
		}
		resp.Leases = append(resp.Leases, t.grant(p, req.Worker))
	}
	for i := len(t.order) - 1; i >= 0 && len(resp.Leases) < req.Max; i-- {
		p := t.pairs[t.order[i]]
		if p.done || p.cur == nil || p.cur.worker == req.Worker || !now.After(p.cur.expires) {
			continue
		}
		t.dropLease(p)
		resp.Leases = append(resp.Leases, t.grant(p, req.Worker))
	}

	t.fillCounts(&resp.Total, &resp.Completed, &resp.Pending, &resp.Leased, &resp.Done)
	return resp
}

// Complete records posted results. Idempotent per pair: the first
// completion wins, later ones count as Duplicate (results are
// deterministic, so which one wins is immaterial); pairs outside the
// sweep count as Stale. A completion is accepted even when the worker's
// lease was stolen meanwhile — the work is done and discarding it would
// only force a re-execution.
func (t *FleetTable) Complete(workerName string, results []FleetPairDone) FleetResultResponse {
	t.mu.Lock()
	defer t.mu.Unlock()
	var resp FleetResultResponse
	for _, item := range results {
		p := t.pairs[item.Pair.Pair()]
		if p == nil {
			resp.Stale++
			continue
		}
		if p.done {
			resp.Duplicate++
			metricFleetDupResults.Inc()
			continue
		}
		t.dropLease(p)
		p.done = true
		p.result = item.Pair
		t.done++
		t.worker(workerName).Completed++
		metricFleetPairsDone.Inc()
		resp.Accepted++
	}
	var pending, leased int
	t.fillCounts(&resp.Total, &resp.Completed, &pending, &leased, &resp.Done)
	return resp
}

func (t *FleetTable) fillCounts(total, completed, pending, leased *int, done *bool) {
	*total = len(t.order)
	*completed = t.done
	for _, p := range t.pairs {
		if p.done {
			continue
		}
		if p.cur != nil {
			*leased++
		} else {
			*pending++
		}
	}
	*done = t.done == len(t.order)
}

// Status reports the table's state; withResults additionally copies out
// every completed PairResult (sorted like RunContext sorts) once the
// sweep is done.
func (t *FleetTable) Status(withResults bool) FleetStatusResponse {
	t.mu.Lock()
	defer t.mu.Unlock()
	resp := FleetStatusResponse{
		SweepID:  t.id,
		Requeued: t.requeue,
		Workers:  make(map[string]FleetWorkerStatus, len(t.workers)),
	}
	for name, w := range t.workers {
		resp.Workers[name] = *w
	}
	t.fillCounts(&resp.Total, &resp.Completed, &resp.Pending, &resp.Leased, &resp.Done)
	if withResults && resp.Done {
		resp.Results = make([]PairResult, 0, len(t.order))
		for _, name := range t.order {
			resp.Results = append(resp.Results, t.pairs[name].result)
		}
		sortPairs(resp.Results)
	}
	return resp
}

// FleetHub is the coordinator: sessions keyed by FleetSweepSpec.Key,
// created on first claim. Completed sessions are retained (and answer
// late joiners instantly — results are deterministic, so serving a
// finished table is equivalent to recomputing) until retention expires.
type FleetHub struct {
	mu       sync.Mutex
	ttl      time.Duration
	retain   time.Duration
	now      func() time.Time
	sessions map[string]*fleetSession
}

type fleetSession struct {
	table    *FleetTable
	lastUsed time.Time
}

// fleetRetain bounds how long an idle session (done or not) survives: a
// fresh client after that recomputes from scratch rather than reading a
// table whose workers are long gone.
const fleetRetain = 10 * time.Minute

// NewFleetHub builds a coordinator. ttl <= 0 means defaultFleetTTL; nil
// now means time.Now.
func NewFleetHub(ttl time.Duration, now func() time.Time) *FleetHub {
	if ttl <= 0 {
		ttl = defaultFleetTTL
	}
	if now == nil {
		now = time.Now
	}
	return &FleetHub{ttl: ttl, retain: fleetRetain, now: now, sessions: map[string]*fleetSession{}}
}

// session returns (creating if create) the table for the sweep, evicting
// sessions idle past retention on the way.
func (h *FleetHub) session(sw FleetSweepSpec, create bool) (*FleetTable, error) {
	if len(sw.Ops) == 0 {
		return nil, fmt.Errorf("fleet: sweep names no operations")
	}
	key := sw.Key()
	h.mu.Lock()
	defer h.mu.Unlock()
	now := h.now()
	for k, s := range h.sessions {
		if now.Sub(s.lastUsed) > h.retain {
			delete(h.sessions, k)
		}
	}
	s := h.sessions[key]
	if s == nil {
		if !create {
			return nil, fmt.Errorf("fleet: unknown sweep %.8s (no claim seen; the coordinator may have restarted)", key)
		}
		if err := sw.validate(); err != nil {
			return nil, err
		}
		s = &fleetSession{table: NewFleetTable(key, sw.PairNames(), h.ttl, h.now)}
		h.sessions[key] = s
	}
	s.lastUsed = now
	return s.table, nil
}

// Claim serves one claim request, creating the session on first contact.
func (h *FleetHub) Claim(req FleetClaimRequest) (FleetClaimResponse, error) {
	if req.Worker == "" {
		return FleetClaimResponse{}, fmt.Errorf("fleet: claim names no worker")
	}
	t, err := h.session(req.Sweep, true)
	if err != nil {
		return FleetClaimResponse{}, err
	}
	return t.Claim(req), nil
}

// Report serves one result post. The session must already exist — a
// worker cannot post into a sweep nobody claimed from (after a
// coordinator restart the worker's next claim rebuilds the session and
// the pairs re-run). A posted result reaches the session's table and
// nothing else: what it says about keys or cells is never stored.
func (h *FleetHub) Report(req FleetResultRequest) (FleetResultResponse, error) {
	if req.Worker == "" {
		return FleetResultResponse{}, fmt.Errorf("fleet: result post names no worker")
	}
	t, err := h.session(req.Sweep, false)
	if err != nil {
		return FleetResultResponse{}, err
	}
	return t.Complete(req.Worker, req.Results), nil
}

// Status serves one status request.
func (h *FleetHub) Status(sw FleetSweepSpec, withResults bool) (FleetStatusResponse, error) {
	t, err := h.session(sw, false)
	if err != nil {
		return FleetStatusResponse{}, err
	}
	return t.Status(withResults), nil
}
