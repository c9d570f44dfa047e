package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/commuter"
)

// universe is what the workloads sweep. The benchmark runs on posixUniverse;
// the smoke tests run the same code on the small queue spec.
type universe struct {
	spec    string   // spec of the main sweeps
	ops     []string // its ops in canonical order
	kernels []string // its implementations in check order
	// cold are the specs one cold_sweep iteration covers in full.
	cold []commuter.SpecInfo
	// fleetSet selects the ops the fleet probe's members sweep.
	fleetSet string
	// minOps is the smallest request serve_warm issues; the largest is
	// every op.
	minOps int
}

func newUniverse(ctx context.Context, spec string, coldSpecs []string, fleetSet string, minOps int) (universe, error) {
	u := universe{spec: spec, fleetSet: fleetSet, minOps: minOps}
	info, err := specInfo(ctx, spec)
	if err != nil {
		return u, err
	}
	u.ops, u.kernels = info.Ops, info.Impls
	for _, name := range coldSpecs {
		info, err := specInfo(ctx, name)
		if err != nil {
			return u, err
		}
		u.cold = append(u.cold, info)
	}
	return u, nil
}

func posixUniverse(ctx context.Context) (universe, error) {
	return newUniverse(ctx, "posix", allSpecs, "fs", 9)
}

func specInfo(ctx context.Context, name string) (commuter.SpecInfo, error) {
	specs, err := commuter.Local().Specs(ctx)
	if err != nil {
		return commuter.SpecInfo{}, err
	}
	for _, s := range specs {
		if s.Name == name {
			return s, nil
		}
	}
	return commuter.SpecInfo{}, fmt.Errorf("spec %q is not registered", name)
}

// env is what a run hands each workload.
type env struct {
	u        universe
	seed     int64
	workers  int    // sweep workers and client connections
	tmp      string // scratch directory inside the checkout
	expected matrices
	tr       *tracer // nil unless the run is traced
}

// sample is one timed iteration: one sweep, or one served request.
type sample struct {
	wall     time.Duration
	verdicts int
	err      error
}

// instance is one set-up workload. block runs one block of its closed loop
// — one sweep, or one round of served requests — and close releases what
// setup started. Between two blocks nothing of the workload runs, which is
// when an untraced run times the reference pass (ref.go).
type instance interface {
	block(ctx context.Context) []sample
	close() error
}

var workloads = map[string]func(context.Context, *env) (instance, error){
	"cold_sweep": setupColdSweep,
	"serve_warm": setupServeWarm,
}

// timed runs one iteration whose whole duration is its wall time.
func timed(iter func() (int, error)) sample {
	start := time.Now()
	v, err := iter()
	return sample{wall: time.Since(start), verdicts: v, err: err}
}

// sweepOnce runs one streamed sweep to completion, consuming every update
// (Client.Sweep is this loop too), and returns the result and the time to
// the first update. On a traced run each finished pair becomes a span.
func sweepOnce(ctx context.Context, c commuter.Client, l lane, opts ...commuter.Option) (*commuter.SweepResult, time.Duration, error) {
	start := time.Now()
	var (
		res   *commuter.SweepResult
		first time.Duration
	)
	for upd, err := range c.SweepStream(ctx, opts...) {
		if err != nil {
			return nil, 0, err
		}
		if first == 0 {
			first = time.Since(start)
		}
		if upd.Pair != nil {
			l.pair(start, upd.Pair)
		}
		if upd.Result != nil {
			res = upd.Result
		}
	}
	if res == nil {
		return nil, 0, errors.New("sweep stream ended without a result")
	}
	return res, first, nil
}

// --- cold_sweep ---

type coldSweep struct{ e *env }

func setupColdSweep(ctx context.Context, e *env) (instance, error) {
	w := coldSweep{e}
	if _, err := w.iterate(ctx); err != nil { // warm-up
		return nil, err
	}
	return w, nil
}

func (w coldSweep) iterate(ctx context.Context) (int, error) {
	l, end := w.e.tr.lane(0).span("cold_sweep.iter", "workload")
	defer end()
	verdicts := 0
	for _, info := range w.e.u.cold {
		res, _, err := sweepOnce(ctx, commuter.Local(), l,
			commuter.WithSpec(info.Name), commuter.WithOpSet("all"), commuter.WithWorkers(w.e.workers))
		if err != nil {
			return 0, err
		}
		v, err := w.e.expected.verify(res, info.Ops, info.Impls)
		if err != nil {
			return 0, err
		}
		verdicts += v
	}
	return verdicts, nil
}

func (w coldSweep) block(ctx context.Context) []sample {
	return []sample{timed(func() (int, error) { return w.iterate(ctx) })}
}

func (coldSweep) close() error { return nil }

// --- serving ---

// server is a commuter handler on a loopback listener.
type server struct {
	url  string
	srv  *http.Server
	done chan error
}

func startServer(opts ...commuter.ServerOption) (*server, error) {
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil)) // one log line per request otherwise
	h, err := commuter.NewServerHandler(commuter.Local(), append(opts, commuter.ServeWithLogger(quiet))...)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{url: "http://" + ln.Addr().String(), srv: &http.Server{Handler: h}, done: make(chan error, 1)}
	go func() { s.done <- s.srv.Serve(ln) }()
	return s, nil
}

// stop closes the listener and every connection and waits for Serve to
// return.
func (s *server) stop() error {
	err := s.srv.Close()
	if serr := <-s.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// --- serve_warm ---

// genRequests returns n op subsets of ops, each in the canonical order of
// ops (so pair orientation, hence cache keys, are those of a full sweep).
// Sizes run from minOps to len(ops); every run of that many consecutive
// requests holds each size once, so the size mix is the same for every
// seed. The ops a request leaves out are the next ones around a shuffled
// circle of all ops, each request starting where the one before stopped, and
// the circle is drawn afresh every two runs of sizes: within those, every op
// is left out as often as any other, to within one (exactly, for the 18 posix
// ops), so what a round of requests costs hardly depends on the seed. The
// seed chooses the circles and the order of the sizes.
func genRequests(seed int64, ops []string, minOps, n int) [][]string {
	r := rand.New(rand.NewPCG(uint64(seed), 0x636f6d6d75746572))
	out := make([][]string, 0, n)
	for len(out) < n {
		circle, at := r.Perm(len(ops)), 0
		for range 2 {
			for _, omit := range r.Perm(len(ops) - minOps + 1) {
				left := make(map[int]bool, omit)
				for range omit {
					left[circle[at%len(ops)]] = true
					at++
				}
				var req []string
				for i, op := range ops {
					if !left[i] {
						req = append(req, op)
					}
				}
				out = append(out, req)
			}
		}
	}
	return out[:n]
}

// serveRound is how many requests setup generates, and one block of the
// timed loop: the clients issue them all, then stop, so that every block is
// the same work.
const serveRound = 40

type serveWarm struct {
	e       *env
	srv     *server
	dir     string
	reqs    [][]string
	clients []commuter.Client // one per connection
}

func setupServeWarm(ctx context.Context, e *env) (instance, error) {
	dir, err := os.MkdirTemp(e.tmp, "serve-cache-")
	if err != nil {
		return nil, err
	}
	srv, err := startServer(commuter.ServeWithCache(dir))
	if err != nil {
		return nil, err
	}
	w := &serveWarm{e: e, srv: srv, dir: dir, reqs: genRequests(e.seed, e.u.ops, e.u.minOps, serveRound)}
	for range e.workers {
		c, err := commuter.Dial(srv.url)
		if err != nil {
			return nil, errors.Join(err, w.close())
		}
		w.clients = append(w.clients, c)
	}
	_, _, err = sweepOnce(ctx, w.clients[0], lane{}, commuter.WithSpec(e.u.spec), commuter.WithOpSet("all"), commuter.WithWorkers(e.workers))
	if err != nil {
		return nil, errors.Join(err, w.close())
	}
	return w, nil
}

func (w *serveWarm) request(ctx context.Context, conn int, ops []string) (int, error) {
	l, end := w.e.tr.lane(conn).span("serve_warm.request", "workload")
	defer end()
	// One worker per request: the connections are the parallelism.
	res, _, err := sweepOnce(ctx, w.clients[conn], l, commuter.WithSpec(w.e.u.spec), commuter.WithOps(ops...), commuter.WithWorkers(1))
	if err != nil {
		return 0, err
	}
	if res.Cache.Misses() != 0 {
		return 0, fmt.Errorf("warm request missed the cache: %+v", res.Cache)
	}
	return w.e.expected.verify(res, ops, w.e.u.kernels)
}

// block has the clients issue every generated request once between them,
// each taking the next one when its last completes.
func (w *serveWarm) block(ctx context.Context) []sample {
	var (
		next atomic.Int64
		wg   sync.WaitGroup
		out  = make([]sample, len(w.reqs))
	)
	for conn := range w.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(w.reqs); i = int(next.Add(1)) - 1 {
				out[i] = timed(func() (int, error) { return w.request(ctx, conn, w.reqs[i]) })
			}
		}()
	}
	wg.Wait()
	return out
}

func (w *serveWarm) close() error {
	errs := []error{w.srv.stop(), os.RemoveAll(w.dir)}
	for _, c := range w.clients {
		errs = append(errs, c.Close())
	}
	return errors.Join(errs...)
}
