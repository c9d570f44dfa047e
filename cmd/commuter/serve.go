package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"repro/commuter"
)

// cmdServe hosts the COMMUTER pipeline over HTTP: the versioned JSON API
// every subcommand's -server flag consumes. One serve instance fans each
// sweep across its own worker pool and puts the shared two-tier result
// cache (-cache) behind all clients, so a pair any client ever swept is a
// cache hit for every later one.
//
// The handler exposes its telemetry on GET /metrics (Prometheus text
// exposition) and — with -pprof — the runtime profiler under
// /debug/pprof/. Every request logs one structured line at Info; -log
// selects the level (default warn keeps the console quiet).
func cmdServe(args []string) {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", "localhost:8372", "listen address")
	cacheDir := fs.String("cache", "", "shared sweep result cache backend: a directory (or dir:PATH), mem[:N], a peer server's http(s) URL, or a comma list layered fastest-first (empty disables caching)")
	fleet := fs.String("fleet", "", "fleet coordinator: `coordinator=URL` (or a bare URL) of the commuter serve instance whose lease table this server's sweeps work from; empty runs every sweep standalone")
	j := fs.Int("j", runtime.NumCPU(), "default worker pool size for sweeps that don't request one")
	grace := fs.Duration("grace", 15*time.Second, "shutdown drain bound: how long in-flight requests may run before being cancelled")
	pprofOn := fs.Bool("pprof", false, "mount the runtime profiler on /debug/pprof/ (exposes stacks; keep the listener trusted)")
	logLevel := logFlag(fs)
	fs.Parse(args)
	logger := setupLogging(*logLevel)

	opts := []commuter.ServerOption{
		commuter.ServeWithWorkers(*j),
		commuter.ServeWithLogger(logger),
	}
	if *cacheDir != "" {
		opts = append(opts, commuter.ServeWithCache(*cacheDir))
	}
	if *fleet != "" {
		opts = append(opts, commuter.ServeWithFleet(fleetURL(*fleet)))
	}
	if *pprofOn {
		opts = append(opts, commuter.ServeWithPprof())
	}
	handler, err := commuter.NewServerHandler(commuter.Local(), opts...)
	if err != nil {
		fatal(err)
	}

	// Listen before announcing, so "serving on ..." is a readiness signal
	// scripts (and the CI smoke job) can wait for.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}

	// Request lifetimes are deliberately NOT tied to the first signal:
	// Shutdown below stops new connections while in-flight sweeps keep
	// running to completion. cancelReqs is the second, forceful stage —
	// through BaseContext it reaches every request context, and from
	// there the sweep workers and solver Stop hooks.
	reqCtx, cancelReqs := context.WithCancel(context.Background())
	defer cancelReqs()
	srv := newHTTPServer(handler, reqCtx, readHeaderTimeout)

	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	fmt.Fprintf(os.Stderr, "commuter: serving on http://%s (cache: %s)\n", ln.Addr(), cacheOrNone(*cacheDir))

	shutdownDone := make(chan struct{})
	go func() {
		defer close(shutdownDone)
		sig := <-sigs
		logger.Info("shutdown: draining in-flight requests", "signal", sig.String(), "grace", *grace)
		// A second signal skips the rest of the drain.
		go func() {
			sig := <-sigs
			logger.Warn("shutdown: second signal, cancelling in-flight requests", "signal", sig.String())
			cancelReqs()
		}()
		sctx, cancel := context.WithTimeout(context.Background(), *grace)
		defer cancel()
		if err := srv.Shutdown(sctx); err != nil {
			// Grace expired with requests still running. Cancel them —
			// sweeps abandon their symbolic work between (and inside)
			// solver searches and emit a terminal error frame — then give
			// the unwinding a short, bounded wait.
			logger.Warn("shutdown: drain bound hit, cancelling in-flight requests", "err", err)
			cancelReqs()
			fctx, fcancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer fcancel()
			srv.Shutdown(fctx)
		}
		logger.Info("shutdown: done")
	}()
	if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fatal(err)
	}
	// Serve returns the moment the listener closes; the drain above is
	// still running. Wait it out so in-flight work isn't killed mid-write.
	<-shutdownDone
}

// readHeaderTimeout bounds how long a connection may take to send its
// request headers. Bodies and responses stay unbounded on purpose: check
// requests carry whole test sets and sweeps stream for minutes.
const readHeaderTimeout = 10 * time.Second

// newHTTPServer builds the server cmdServe runs: every request context
// derives from base, and a connection that trickles (or never finishes)
// its headers is closed after headerTimeout instead of holding a
// goroutine and a descriptor forever.
func newHTTPServer(handler http.Handler, base context.Context, headerTimeout time.Duration) *http.Server {
	return &http.Server{
		Handler:           handler,
		BaseContext:       func(net.Listener) context.Context { return base },
		ReadHeaderTimeout: headerTimeout,
	}
}

func cacheOrNone(dir string) string {
	if dir == "" {
		return "none"
	}
	return dir
}

// fleetURL strips the optional "coordinator=" prefix of a -fleet value,
// so both `-fleet coordinator=http://host:8372` (the documented form,
// leaving room for future fleet sub-options) and a bare URL work.
func fleetURL(v string) string {
	if rest, ok := strings.CutPrefix(v, "coordinator="); ok {
		return rest
	}
	return v
}
