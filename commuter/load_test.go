package commuter_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/commuter"
	"repro/internal/api"
)

// renderMatrices is the rendering `commuter sweep` prints, the form in
// which two sweeps are compared whatever their timings and cache luck.
func renderMatrices(res *commuter.SweepResult) string {
	var b bytes.Buffer
	for _, m := range commuter.MatricesFromSweep(res) {
		b.WriteString(commuter.FormatMatrix(m))
	}
	return b.String()
}

// TestConcurrentSweepsWithStallingConsumer loads one caching server with
// several Dial clients at once — cold, coalesced and warm sweeps mixed —
// while a raw consumer reads its NDJSON stream slowly, holding the
// per-frame flush path under TCP backpressure. Every stream must end in a
// result frame, all matrices must agree, and afterwards the server must be
// idle: no request in flight, no goroutine left. Best run under -race.
func TestConcurrentSweepsWithStallingConsumer(t *testing.T) {
	_, srv := newLoopback(t, commuter.ServeWithCache(t.TempDir()))
	before := runtime.NumGoroutine()

	const clients, sweepsEach = 4, 2
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		matrices []string
	)
	record := func(who string, res *commuter.SweepResult, err error) {
		mu.Lock()
		defer mu.Unlock()
		if err != nil {
			t.Errorf("%s: %v", who, err)
			return
		}
		matrices = append(matrices, renderMatrices(res))
	}
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cli, err := commuter.Dial(srv.URL)
			if err != nil {
				record("dial", nil, err)
				return
			}
			defer cli.Close()
			for i := 0; i < sweepsEach; i++ {
				res, err := cli.Sweep(context.Background(), commuter.WithSpec("queue"), commuter.WithOpSet("all"))
				record(fmt.Sprintf("client %d sweep %d", c, i), res, err)
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		res, err := stallingSweep(srv.URL, api.Options{Spec: "queue", Ops: "all"}, 10*time.Millisecond)
		record("stalling consumer", res, err)
	}()
	wg.Wait()

	if want := clients*sweepsEach + 1; len(matrices) != want {
		t.Fatalf("%d of %d streams ended in a result frame", len(matrices), want)
	}
	for i, m := range matrices {
		if m == "" || m != matrices[0] {
			t.Errorf("stream %d rendered a different matrix:\n%s\nwant:\n%s", i, m, matrices[0])
		}
	}

	// The server counts a request out once its handler has returned, which
	// a client holding the terminal frame does not wait for.
	const inflight = "commuter_http_requests_inflight"
	_, vals := scrape(t, srv.URL)
	for deadline := time.Now().Add(5 * time.Second); vals[inflight] != 1 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
		_, vals = scrape(t, srv.URL)
	}
	if v := vals[inflight]; v != 1 { // the scrape itself
		t.Errorf("%s = %g with only the scrape in flight", inflight, v)
	}

	srv.Config.SetKeepAlivesEnabled(false)
	http.DefaultClient.CloseIdleConnections()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutine leak after the load: %d before, %d after", before, after)
	}
}

// stallingSweep posts one sweep without the Client and reads its NDJSON
// stream frame by frame, sleeping delay after each, up to the terminal
// frame.
func stallingSweep(base string, opts api.Options, delay time.Duration) (*commuter.SweepResult, error) {
	body, err := json.Marshal(api.SweepRequest{Version: api.Version, Options: opts})
	if err != nil {
		return nil, err
	}
	resp, err := http.Post(base+api.PathSweep, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("sweep: %s", resp.Status)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(nil, 1<<20) // the result frame carries every pair
	frames := 0
	for sc.Scan() {
		var f api.Frame
		if err := json.Unmarshal(sc.Bytes(), &f); err != nil {
			return nil, fmt.Errorf("frame %d: %w", frames, err)
		}
		frames++
		switch f.Type {
		case api.FrameResult:
			return f.Result.ToSweep(), nil
		case api.FrameError:
			return nil, fmt.Errorf("sweep failed: %s", f.Error.Message)
		}
		time.Sleep(delay)
	}
	return nil, fmt.Errorf("stream ended after %d frames without a result: %v", frames, sc.Err())
}
