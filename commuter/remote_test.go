package commuter_test

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/commuter"
)

// newLoopback starts a wire-format server over Local() on a loopback
// listener and dials it.
func newLoopback(t *testing.T, opts ...commuter.ServerOption) (commuter.Client, *httptest.Server) {
	t.Helper()
	h, err := commuter.NewServerHandler(commuter.Local(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	cli, err := commuter.Dial(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cli.Close() })
	return cli, srv
}

// stripTimings zeroes the timing fields, which legitimately differ
// between runs; everything else must round-trip exactly.
func stripTimings(res *commuter.SweepResult) *commuter.SweepResult {
	out := *res
	out.Elapsed = 0
	out.Pairs = append([]commuter.SweepPair(nil), res.Pairs...)
	for i := range out.Pairs {
		out.Pairs[i].ElapsedMS = 0
		out.Pairs[i].Cached = false // cache state differs run to run, not pair content
		out.Pairs[i].StartMS = 0
		out.Pairs[i].Phases = commuter.SweepPair{}.Phases
		out.Pairs[i].Solver = commuter.SweepPair{}.Solver
		// CheckGroups is populated only when the CHECK stage actually
		// replays (cache hits skip it).
		out.Pairs[i].CheckGroups = 0
	}
	return &out
}

// TestRemoteSweepMatchesLocal is the implementation-agnosticism proof: a
// small sweep through the HTTP binding must equal the in-process run —
// structurally on the pair results, and byte-for-byte on the rendered
// Figure 6 matrices.
func TestRemoteSweepMatchesLocal(t *testing.T) {
	if testing.Short() {
		t.Skip("pipeline in -short mode")
	}
	ctx := context.Background()
	opts := []commuter.Option{commuter.WithOps("stat", "lseek", "close"), commuter.WithWorkers(2)}

	local, err := commuter.Local().Sweep(ctx, opts...)
	if err != nil {
		t.Fatal(err)
	}
	cli, _ := newLoopback(t)
	remote, err := cli.Sweep(ctx, opts...)
	if err != nil {
		t.Fatal(err)
	}

	lt, rt := stripTimings(local), stripTimings(remote)
	rt.Workers = lt.Workers // resolved by whichever side executes
	if !reflect.DeepEqual(lt, rt) {
		lj, _ := json.MarshalIndent(lt, "", " ")
		rj, _ := json.MarshalIndent(rt, "", " ")
		t.Fatalf("remote sweep diverged from local:\nlocal:\n%s\nremote:\n%s", lj, rj)
	}

	// The rendering the CLI prints must be byte-identical too.
	lm, rm := commuter.MatricesFromSweep(local), commuter.MatricesFromSweep(remote)
	if len(lm) != len(rm) {
		t.Fatalf("matrix count: %d vs %d", len(lm), len(rm))
	}
	for i := range lm {
		if got, want := commuter.FormatMatrix(rm[i]), commuter.FormatMatrix(lm[i]); got != want {
			t.Errorf("matrix %d rendering diverged:\nremote:\n%s\nlocal:\n%s", i, got, want)
		}
	}
}

// TestSweepStreamProgressCarriesPair pins the stream's shape through
// either binding: every non-terminal update carries its finished pair, the
// one the terminal result reports under that name, and a progress whose
// Done counts up by one to Total.
func TestSweepStreamProgressCarriesPair(t *testing.T) {
	remote, _ := newLoopback(t)
	for name, cli := range map[string]commuter.Client{"Local": commuter.Local(), "Dial": remote} {
		var (
			streamed []*commuter.SweepPair
			final    *commuter.SweepResult
		)
		for upd, err := range cli.SweepStream(context.Background(), commuter.WithSpec("queue"), commuter.WithOps("send", "recv")) {
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if upd.Result != nil {
				final = upd.Result
				continue
			}
			streamed = append(streamed, upd.Pair)
			if upd.Pair == nil || upd.Progress == nil || upd.Progress.Done != len(streamed) || upd.Progress.Total != 3 {
				t.Errorf("%s: update %d has Progress %+v beside Pair %+v", name, len(streamed), upd.Progress, upd.Pair)
			}
		}
		if final == nil || len(streamed) != 3 {
			t.Fatalf("%s: %d updates for 3 pairs, result %v", name, len(streamed), final)
		}
		for _, pr := range streamed {
			i := slices.IndexFunc(final.Pairs, func(p commuter.SweepPair) bool { return p.Pair() == pr.Pair() })
			if i < 0 || !reflect.DeepEqual(final.Pairs[i], *pr) {
				t.Errorf("%s: streamed pair %+v is not in the result %+v", name, pr, final.Pairs)
			}
		}
	}
}

// TestRemotePipelineMatchesLocal pins the request-response endpoints:
// specs, analysis and testgen+check must agree across the wire.
func TestRemotePipelineMatchesLocal(t *testing.T) {
	if testing.Short() {
		t.Skip("pipeline in -short mode")
	}
	ctx := context.Background()
	cli, _ := newLoopback(t)
	local := commuter.Local()

	ls, err := local.Specs(ctx)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := cli.Specs(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ls, rs) {
		t.Errorf("specs diverged:\nlocal:  %+v\nremote: %+v", ls, rs)
	}

	la, err := local.Analyze(ctx, "stat", "unlink")
	if err != nil {
		t.Fatal(err)
	}
	ra, err := cli.Analyze(ctx, "stat", "unlink")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(la, ra) {
		t.Errorf("analysis diverged:\nlocal:  %+v\nremote: %+v", la, ra)
	}

	lt, err := local.GenerateTests(ctx, "stat", "unlink", commuter.WithTestsPerPath(2))
	if err != nil {
		t.Fatal(err)
	}
	rt, err := cli.GenerateTests(ctx, "stat", "unlink", commuter.WithTestsPerPath(2))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(lt, rt) {
		t.Errorf("test sets diverged (%d vs %d tests)", len(lt.Tests), len(rt.Tests))
	}

	lc, err := local.Check(ctx, "sv6", lt.Tests)
	if err != nil {
		t.Fatal(err)
	}
	rc, err := cli.Check(ctx, "sv6", rt.Tests)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(lc, rc) {
		t.Errorf("check summaries diverged:\nlocal:  %+v\nremote: %+v", lc, rc)
	}
}

// TestRemoteErrorsMatchLocal pins that name-resolution failures read the
// same through the wire as in-process.
func TestRemoteErrorsMatchLocal(t *testing.T) {
	ctx := context.Background()
	cli, _ := newLoopback(t)
	local := commuter.Local()

	_, lerr := local.Analyze(ctx, "renme", "rename")
	_, rerr := cli.Analyze(ctx, "renme", "rename")
	if lerr == nil || rerr == nil {
		t.Fatalf("unknown op did not error (local %v, remote %v)", lerr, rerr)
	}
	if lerr.Error() != rerr.Error() {
		t.Errorf("error text diverged:\nlocal:  %s\nremote: %s", lerr, rerr)
	}

	if _, err := cli.Sweep(ctx, commuter.WithSpec("posxi")); err == nil ||
		!strings.Contains(err.Error(), "known specs:") {
		t.Errorf("remote sweep with unknown spec: %v", err)
	}

	// WithCache is a local-only option; the remote binding must reject it
	// client-side instead of silently ignoring it.
	if _, err := cli.Sweep(ctx, commuter.WithOps("stat"), commuter.WithCache(t.TempDir())); err == nil ||
		!strings.Contains(err.Error(), "commuter serve -cache") {
		t.Errorf("remote sweep with WithCache: %v", err)
	}
}

// TestCheckCallerMistakeIsBadRequest: a test kernel.Admit refuses, or one
// naming an op the selected spec does not have, is the caller's mistake —
// IsBadRequest locally and through the wire (a 400), naming the test — not
// an internal error.
func TestCheckCallerMistakeIsBadRequest(t *testing.T) {
	ctx := context.Background()
	cli, _ := newLoopback(t)
	local := commuter.Local()
	ts, err := local.GenerateTests(ctx, "stat", "stat", commuter.WithTestsPerPath(1))
	if err != nil || len(ts.Tests) == 0 {
		t.Fatalf("no stat/stat tests: %v", err)
	}
	for _, tc := range []struct {
		name   string
		edit   func(*commuter.TestCase)
		kernel string
		opts   []commuter.Option
		want   string
	}{
		{"proc", func(tc *commuter.TestCase) { tc.Calls[0].Proc = 7 }, "sv6", nil, "process 7"},
		{"op", func(tc *commuter.TestCase) { tc.Calls[1].Op = "frob" }, "linux", nil, "known ops:"},
		{"op-of-another-spec", func(*commuter.TestCase) {}, "memq", []commuter.Option{commuter.WithSpec("queue")}, "known ops:"},
	} {
		bad := ts.Tests[0]
		bad.ID = "mistaken-" + tc.name
		tc.edit(&bad)
		_, lerr := local.Check(ctx, tc.kernel, []commuter.TestCase{ts.Tests[0], bad}, tc.opts...)
		_, rerr := cli.Check(ctx, tc.kernel, []commuter.TestCase{ts.Tests[0], bad}, tc.opts...)
		for binding, err := range map[string]error{"local": lerr, "remote": rerr} {
			if !commuter.IsBadRequest(err) || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%s, %s: err = %v (bad request: %v), want a bad request saying %q",
					tc.name, binding, err, commuter.IsBadRequest(err), tc.want)
			}
		}
		if lerr != nil && rerr != nil && lerr.Error() != rerr.Error() {
			t.Errorf("%s: error text diverged:\nlocal:  %s\nremote: %s", tc.name, lerr, rerr)
		}
	}
}

// TestRemoteSweepServerCache pins the serve-side shared cache: a cold
// sweep misses, a warm rerun of the same request hits every cell, reads no
// tests and recomputes nothing.
func TestRemoteSweepServerCache(t *testing.T) {
	if testing.Short() {
		t.Skip("pipeline in -short mode")
	}
	ctx := context.Background()
	cli, _ := newLoopback(t, commuter.ServeWithCache(t.TempDir()))
	opts := []commuter.Option{commuter.WithOps("stat", "lseek", "close")}

	cold, err := cli.Sweep(ctx, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Cache.TestgenMisses == 0 || cold.Cache.TestgenHits != 0 {
		t.Errorf("cold sweep stats: %+v", cold.Cache)
	}
	warm, err := cli.Sweep(ctx, opts...)
	if err != nil {
		t.Fatal(err)
	}
	cells := 0
	for _, p := range warm.Pairs {
		cells += len(p.Cells)
	}
	if want := (commuter.SweepCacheStats{CheckHits: cells}); cells == 0 || warm.Cache != want {
		t.Errorf("warm sweep stats: %+v, want %+v", warm.Cache, want)
	}
	for _, p := range warm.Pairs {
		if !p.Cached {
			t.Errorf("warm pair %s was recomputed", p.Pair())
		}
	}
}

// TestRemoteSweepCancel is the remote half of the acceptance criterion:
// cancelling a sweep running on the server returns context.Canceled to
// the dialing side promptly and leaks no goroutines on either side (both
// live in this process here, so one counter covers them).
func TestRemoteSweepCancel(t *testing.T) {
	if testing.Short() {
		t.Skip("pipeline in -short mode")
	}
	cli, srv := newLoopback(t)
	before := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var sawErr error
	start := time.Now()
	for upd, err := range cli.SweepStream(ctx, commuter.WithOps("stat", "lseek", "close", "open")) {
		if err != nil {
			sawErr = err
			break
		}
		if upd.Progress != nil {
			cancel()
		}
	}
	if !errors.Is(sawErr, context.Canceled) {
		t.Errorf("cancelled remote stream ended with %v, want context.Canceled", sawErr)
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Errorf("cancellation took %v to surface", elapsed)
	}

	// Both halves live in this process: wait for the server handler and
	// the client bridge to wind down, then compare goroutine counts.
	srv.Config.SetKeepAlivesEnabled(false)
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutine leak after cancelled remote sweep: %d before, %d after", before, after)
	}
}

// TestDialValidation pins Dial's URL contract.
func TestDialValidation(t *testing.T) {
	for _, bad := range []string{"", "localhost:1", "ftp://x", "http://"} {
		if _, err := commuter.Dial(bad); err == nil {
			t.Errorf("Dial(%q) accepted", bad)
		}
	}
	if _, err := commuter.Dial("http://localhost:0"); err != nil {
		t.Errorf("Dial(valid) = %v", err)
	}
}

// TestServerClampsWorkers pins the server-side bound on a wire Workers
// value: a request may shrink its sweep's pool but never grow it past the
// server's (ServeWithWorkers, else one per CPU) — 1<<20 workers would
// otherwise be 1<<20 goroutines in fleet mode.
func TestServerClampsWorkers(t *testing.T) {
	ctx := context.Background()
	sweepWorkers := func(cli commuter.Client, opts ...commuter.Option) int {
		t.Helper()
		res, err := cli.Sweep(ctx, append(opts, commuter.WithOps("stat"))...)
		if err != nil {
			t.Fatal(err)
		}
		return res.Workers
	}

	cli, _ := newLoopback(t, commuter.ServeWithWorkers(2))
	for _, tc := range []struct{ ask, want int }{{1 << 20, 2}, {3, 2}, {0, 2}, {2, 2}, {1, 1}} {
		if got := sweepWorkers(cli, commuter.WithWorkers(tc.ask)); got != tc.want {
			t.Errorf("pool of 2: request for %d workers ran on %d, want %d", tc.ask, got, tc.want)
		}
	}

	// Without ServeWithWorkers the pool is the server's CPU count.
	cli, _ = newLoopback(t)
	if got := sweepWorkers(cli, commuter.WithWorkers(1<<20)); got != runtime.NumCPU() {
		t.Errorf("default pool: request for 1<<20 workers ran on %d, want %d", got, runtime.NumCPU())
	}
	if got := sweepWorkers(cli, commuter.WithWorkers(1)); got != 1 {
		t.Errorf("default pool: request for 1 worker ran on %d", got)
	}
}

// TestDialCheckVerdictsAlign holds a Dial client to its check of a Check
// response: a server answering with fewer verdicts than tests, or with
// them out of order, is an error, never a panic or a verdict given to
// another test. An aligned answer passes.
func TestDialCheckVerdictsAlign(t *testing.T) {
	tests := []commuter.TestCase{{ID: "a"}, {ID: "b"}}
	for _, c := range []struct {
		name     string
		verdicts []commuter.TestVerdict
		bad      bool
	}{
		{"short", []commuter.TestVerdict{{TestID: "a"}}, true},
		{"reordered", []commuter.TestVerdict{{TestID: "b"}, {TestID: "a"}}, true},
		{"aligned", []commuter.TestVerdict{{TestID: "a"}, {TestID: "b"}}, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				io.Copy(io.Discard, r.Body)
				json.NewEncoder(w).Encode(commuter.CheckSummary{Kernel: "linux", Total: len(c.verdicts), Verdicts: c.verdicts})
			}))
			defer srv.Close()
			cli, err := commuter.Dial(srv.URL)
			if err != nil {
				t.Fatal(err)
			}
			defer cli.Close()
			sum, err := cli.Check(context.Background(), "linux", tests)
			if c.bad && err == nil {
				t.Fatalf("verdicts %+v for tests a, b were accepted: %+v", c.verdicts, sum)
			}
			if !c.bad && (err != nil || !reflect.DeepEqual(sum.Verdicts, c.verdicts)) {
				t.Fatalf("aligned verdicts: %+v, err %v", sum, err)
			}
		})
	}
}
