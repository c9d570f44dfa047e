// Remote_sweep demonstrates the Client API's two bindings end to end in
// one process: it hosts the COMMUTER pipeline on a loopback HTTP server
// (the same handler `commuter serve` runs), dials it, streams a small
// sweep over the versioned JSON protocol, and shows that the remote
// result renders the exact same Figure 6 matrix as an in-process run.
//
//	go run ./examples/remote_sweep
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"

	"repro/commuter"
)

func main() {
	// Host the pipeline: any Client can back the handler; here the
	// in-process binding, with a shared sweep cache.
	cacheDir, err := os.MkdirTemp("", "commuter-cache-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(cacheDir)
	handler, err := commuter.NewServerHandler(commuter.Local(), commuter.ServeWithCache(cacheDir))
	if err != nil {
		log.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	srv := &http.Server{Handler: handler}
	go srv.Serve(ln)
	defer srv.Close()

	url := "http://" + ln.Addr().String()
	fmt.Printf("serving the COMMUTER pipeline on %s\n\n", url)

	// Dial it. Everything below would work identically with
	// cli := commuter.Local() — that is the point of the interface.
	cli, err := commuter.Dial(url)
	if err != nil {
		log.Fatal(err)
	}
	defer cli.Close()
	ctx := context.Background()

	// One request-response call: analyze a pair on the server.
	analysis, err := cli.Analyze(ctx, "stat", "unlink")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(analysis.Summary())

	// One streamed sweep: per-pair results arrive as NDJSON frames while
	// the server still computes the rest.
	fmt.Println("\nsweeping stat,lseek,close,open over the wire:")
	opts := []commuter.Option{commuter.WithOps("stat", "lseek", "close", "open")}
	var remote *commuter.SweepResult
	for upd, err := range cli.SweepStream(ctx, opts...) {
		if err != nil {
			log.Fatal(err)
		}
		if ev := upd.Progress; ev != nil {
			fmt.Printf("  [%2d/%2d] %-12s %3d tests in %.0fms\n", ev.Done, ev.Total, ev.Pair, ev.Tests, ev.PairMS)
		}
		if upd.Result != nil {
			remote = upd.Result
		}
	}
	fmt.Printf("server cache after the sweep: %d testgen misses (cold run)\n\n", remote.Cache.TestgenMisses)

	// The remote result is the local result: same pairs, same cells, same
	// rendered matrix.
	local, err := commuter.Local().Sweep(ctx, opts...)
	if err != nil {
		log.Fatal(err)
	}
	for i, m := range commuter.MatricesFromSweep(remote) {
		lm := commuter.MatricesFromSweep(local)[i]
		same := commuter.FormatMatrix(m) == commuter.FormatMatrix(lm)
		fmt.Printf("%s(remote matrix byte-identical to local: %v)\n\n", commuter.FormatMatrix(m), same)
	}
}
