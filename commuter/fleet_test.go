package commuter_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"

	"repro/commuter"
	"repro/internal/api"
	"repro/internal/sweep"
)

// TestFleetSweepAcrossServers is the end-to-end fleet contract: two
// `commuter serve` instances pointed at one coordinator each answer a
// concurrent sweep of the same options with the complete matrix,
// byte-identical to a single-server run, and the pair executions are
// split between them — every pair computed exactly once fleet-wide
// (asserted through the same /metrics counter the CI smoke job sums).
func TestFleetSweepAcrossServers(t *testing.T) {
	if testing.Short() {
		t.Skip("pipeline in -short mode")
	}
	ctx := context.Background()
	opts := []commuter.Option{commuter.WithOps("stat", "lseek", "close"), commuter.WithWorkers(2)}
	const pairs = 6

	// The single-server reference matrix.
	ref, err := commuter.Local().Sweep(ctx, opts...)
	if err != nil {
		t.Fatal(err)
	}

	_, coord := newLoopback(t)
	cliA, srvA := newLoopback(t, commuter.ServeWithFleet(coord.URL))
	cliB, _ := newLoopback(t, commuter.ServeWithFleet(coord.URL))

	// Metrics are process-global, so the counter delta across the sweep is
	// the fleet-wide execution count: 6 means every pair ran exactly once.
	_, before := scrape(t, srvA.URL)

	var wg sync.WaitGroup
	results := make([]*commuter.SweepResult, 2)
	errs := make([]error, 2)
	for i, cli := range []commuter.Client{cliA, cliB} {
		wg.Add(1)
		go func(i int, cli commuter.Client) {
			defer wg.Done()
			results[i], errs[i] = cli.Sweep(ctx, opts...)
		}(i, cli)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("fleet member %d: %v", i, err)
		}
	}

	want := commuter.FormatMatrix(commuter.MatricesFromSweep(ref)[0])
	for i, res := range results {
		if len(res.Pairs) != pairs {
			t.Errorf("fleet member %d returned %d pairs, want %d (truncated matrix)", i, len(res.Pairs), pairs)
		}
		if got := commuter.FormatMatrix(commuter.MatricesFromSweep(res)[0]); got != want {
			t.Errorf("fleet member %d matrix diverges from single-server run\ngot:\n%s\nwant:\n%s", i, got, want)
		}
	}

	_, after := scrape(t, srvA.URL)
	if d := after["commuter_fleet_pairs_executed_total"] - before["commuter_fleet_pairs_executed_total"]; d != pairs {
		t.Errorf("fleet executed %v pairs for a %d-pair sweep, want exactly once each", d, pairs)
	}
	if d := after["commuter_fleet_duplicate_results_total"] - before["commuter_fleet_duplicate_results_total"]; d != 0 {
		t.Errorf("%v duplicate result posts during a healthy fleet sweep", d)
	}
}

// TestFleetStatusRoute pins the coordinator's status endpoint through
// the full HTTP stack: claim one lease, then read the table back.
func TestFleetStatusRoute(t *testing.T) {
	_, coord := newLoopback(t)
	fc, err := sweep.NewHTTPFleetClient(coord.URL)
	if err != nil {
		t.Fatal(err)
	}
	sw := sweep.FleetSweepSpec{Spec: "posix", Ops: []string{"stat", "close"}, Kernels: []string{"linux"}}
	cr, err := fc.Claim(context.Background(), sweep.FleetClaimRequest{
		Version: sweep.FleetAPIVersion, Worker: "w1", Max: 1, Sweep: sw,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(cr.Leases) != 1 || cr.Total != 3 {
		t.Fatalf("claim over HTTP: %+v", cr)
	}
	st, err := fc.Status(context.Background(), sw, false)
	if err != nil {
		t.Fatal(err)
	}
	if st.Total != 3 || st.Leased != 1 || st.Pending != 2 || st.Workers["w1"].Leased != 1 {
		t.Errorf("status over HTTP: %+v", st)
	}

	// A status read for a sweep nobody claimed from is a clean 400.
	_, err = fc.Status(context.Background(), sweep.FleetSweepSpec{Spec: "posix", Ops: []string{"lseek"}}, false)
	if err == nil || !strings.Contains(err.Error(), "unknown sweep") {
		t.Errorf("unknown-session status: %v, want unknown-sweep error", err)
	}
}

// TestFleetClaimRouteRefusesUncheckedSweep pins, through the HTTP stack,
// that a claim naming a spec the server does not have, or names that are
// not distinct operations of it, is a 400 carrying the known names — the
// coordinator builds no pair table from an unchecked request body.
func TestFleetClaimRouteRefusesUncheckedSweep(t *testing.T) {
	_, coord := newLoopback(t)
	names := make([]string, 40)
	for i := range names {
		names[i] = "op" + strings.Repeat("x", i)
	}
	for _, tc := range []struct {
		sw   sweep.FleetSweepSpec
		want string
	}{
		{sweep.FleetSweepSpec{Spec: "nope", Ops: names}, "known specs: kv, posix, queue, vm"},
		{sweep.FleetSweepSpec{Spec: "queue", Ops: []string{"send", "stat"}}, "known ops: send, recv"},
		{sweep.FleetSweepSpec{Spec: "queue", Ops: []string{"send", "send"}}, "twice"},
	} {
		body, err := json.Marshal(sweep.FleetClaimRequest{Version: sweep.FleetAPIVersion, Worker: "w", Max: 1, Sweep: tc.sw})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(coord.URL+api.PathFleetClaim, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(msg), tc.want) {
			t.Errorf("claim for %s %v: %s %s, want 400 containing %q", tc.sw.Spec, tc.sw.Ops, resp.Status, msg, tc.want)
		}
	}
}

// TestFleetForgedReportStoresNothing pins what a result post can reach: the
// session's lease table and nothing else. A report naming a pair the session
// does not contain, cells nobody computed and a cache key of its own choosing
// is counted stale — and the coordinator's cache backend, which later sweeps
// serve as hits, holds nothing afterwards.
func TestFleetForgedReportStoresNothing(t *testing.T) {
	cache := sweep.NewMemBackend(0)
	_, coord := newLoopback(t, commuter.ServeWithBackend(cache))
	fc, err := sweep.NewHTTPFleetClient(coord.URL)
	if err != nil {
		t.Fatal(err)
	}
	sw := sweep.FleetSweepSpec{Spec: "queue", Ops: []string{"send", "recv"}, Kernels: []string{"memq"}}
	if _, err := fc.Claim(context.Background(), sweep.FleetClaimRequest{
		Version: sweep.FleetAPIVersion, Worker: "w1", Max: 1, Sweep: sw,
	}); err != nil {
		t.Fatal(err)
	}
	key := strings.Repeat("0", 56) + "deadbeef"
	resp, err := fc.Report(context.Background(), sweep.FleetResultRequest{
		Version: sweep.FleetAPIVersion, Worker: "mallory", Sweep: sw,
		Results: []sweep.FleetPairDone{{
			Lease: "forged",
			Pair: sweep.PairResult{OpA: "open", OpB: "open", Tests: 9,
				Cells: []sweep.KernelCell{{Kernel: "sv6", Total: 9}}},
			TestgenKey: key,
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Accepted != 0 || resp.Stale != 1 {
		t.Errorf("forged report: %+v, want 0 accepted and 1 stale", resp)
	}
	if cell, hit := cache.GetCell(sweep.CheckKey(key, "sv6")); hit || cache.Len() != 0 {
		t.Errorf("the coordinator's cache holds %d entries after a forged report (the forged cell: %+v)", cache.Len(), cell)
	}
}

// TestDialRejectsWithFleet pins the option boundary: fleet membership is
// the executing side's configuration, exactly like the cache.
func TestDialRejectsWithFleet(t *testing.T) {
	cli, _ := newLoopback(t)
	_, err := cli.Sweep(context.Background(), commuter.WithFleet("http://example.invalid"))
	var ae *api.Error
	if !errors.As(err, &ae) || ae.Code != api.CodeBadRequest || !strings.Contains(ae.Message, "serve -fleet") {
		t.Fatalf("Dial+WithFleet: %v, want bad-request pointing at serve -fleet", err)
	}
}
