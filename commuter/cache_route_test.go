package commuter_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"repro/commuter"
	"repro/internal/api"
	"repro/internal/kernel"
	"repro/internal/kernel/unix"
	"repro/internal/sweep"
)

// newCacheServer starts a handler hosting the given backend and returns
// its test server.
func newCacheServer(t *testing.T, b sweep.Backend) *httptest.Server {
	t.Helper()
	h, err := commuter.NewServerHandler(commuter.Local(), commuter.ServeWithBackend(b))
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	return srv
}

func doReq(t *testing.T, method, url string, body []byte) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

func TestCacheRoutes(t *testing.T) {
	mem := sweep.NewMemBackend(0)
	srv := newCacheServer(t, mem)
	key := strings.Repeat("ab", 32)
	tests := []kernel.TestCase{{ID: "t0", Setup: &unix.Setup{}}}
	entry, err := sweep.EncodeTestsEntry(key, tests)
	if err != nil {
		t.Fatal(err)
	}
	entryURL := func(tier, key string) string {
		return srv.URL + sweep.CacheRoutePrefix + "/" + tier + "/" + key
	}

	// Miss before anything is stored.
	if code, _ := doReq(t, http.MethodGet, entryURL(sweep.TierTestgen, key), nil); code != http.StatusNotFound {
		t.Errorf("GET empty = %d, want 404", code)
	}

	// Store, then read back byte-identically.
	if code, body := doReq(t, http.MethodPut, entryURL(sweep.TierTestgen, key), entry); code != http.StatusNoContent {
		t.Fatalf("PUT = %d (%s), want 204", code, body)
	}
	code, got := doReq(t, http.MethodGet, entryURL(sweep.TierTestgen, key), nil)
	if code != http.StatusOK {
		t.Fatalf("GET stored = %d, want 200", code)
	}
	if !bytes.Equal(got, entry) {
		t.Errorf("GET returned different bytes than PUT stored:\n%s\nvs\n%s", got, entry)
	}
	if _, ok := mem.GetTests(key); !ok {
		t.Error("PUT did not reach the hosted backend")
	}

	// Malformed requests never reach the backend.
	bad := []struct {
		name string
		url  string
		body []byte
	}{
		{"unknown tier", entryURL("warez", key), entry},
		{"short key", entryURL(sweep.TierTestgen, "abc123"), entry},
		{"non-hex key", entryURL(sweep.TierTestgen, strings.Repeat("zz", 32)), entry},
		{"uppercase key", entryURL(sweep.TierTestgen, strings.Repeat("AB", 32)), entry},
		{"dotted key", entryURL(sweep.TierTestgen, strings.Repeat("a.", 32)), entry},
	}
	for _, tc := range bad {
		if code, _ := doReq(t, http.MethodPut, tc.url, tc.body); code != http.StatusBadRequest {
			t.Errorf("PUT %s = %d, want 400", tc.name, code)
		}
	}

	// A body that is not the canonical entry for the key is rejected, not
	// stored: wrong embedded key, wrong tier decoding, or garbage.
	other := strings.Repeat("cd", 32)
	for name, body := range map[string][]byte{
		"mis-keyed entry": entry, // claims `key`, sent to `other`
		"garbage":         []byte("{not json"),
	} {
		if code, _ := doReq(t, http.MethodPut, entryURL(sweep.TierTestgen, other), body); code != http.StatusBadRequest {
			t.Errorf("PUT %s = %d, want 400", name, code)
		}
		if _, ok := mem.GetTests(other); ok {
			t.Errorf("PUT %s was stored", name)
		}
	}

	// A server hosting no cache declines the routes.
	h, err := commuter.NewServerHandler(commuter.Local())
	if err != nil {
		t.Fatal(err)
	}
	bare := httptest.NewServer(h)
	defer bare.Close()
	if code, _ := doReq(t, http.MethodGet, bare.URL+sweep.CacheRoutePrefix+"/"+sweep.TierTestgen+"/"+key, nil); code != http.StatusBadRequest {
		t.Errorf("GET on cacheless server = %d, want 400", code)
	}
}

// TestRequestBodyIsOneJSONValue pins that every JSON route reads its body
// as exactly one value, as the cache route's PUT does: a request its route
// accepts is a 400 once anything but white space follows it.
func TestRequestBodyIsOneJSONValue(t *testing.T) {
	_, srv := newLoopback(t)
	sw := sweep.FleetSweepSpec{Spec: "queue", Ops: []string{"send"}, Kernels: []string{"memq"}}
	for _, tc := range []struct {
		path string
		req  any
	}{
		{api.PathAnalyze, api.AnalyzeRequest{Version: api.Version, OpA: "send", OpB: "send", Options: api.Options{Spec: "queue"}}},
		{api.PathTestgen, api.TestgenRequest{Version: api.Version, OpA: "send", OpB: "send", Options: api.Options{Spec: "queue"}}},
		{api.PathCheck, api.CheckRequest{Version: api.Version, Kernel: "memq", Options: api.Options{Spec: "queue"}}},
		{api.PathSweep, api.SweepRequest{Version: api.Version, Options: api.Options{Spec: "queue", Ops: "send"}}},
		// The claim opens the session the result post reports into.
		{api.PathFleetClaim, sweep.FleetClaimRequest{Version: sweep.FleetAPIVersion, Worker: "w", Max: 1, Sweep: sw}},
		{api.PathFleetResult, sweep.FleetResultRequest{Version: sweep.FleetAPIVersion, Worker: "w", Sweep: sw}},
	} {
		body, err := json.Marshal(tc.req)
		if err != nil {
			t.Fatal(err)
		}
		if code, msg := doReq(t, http.MethodPost, srv.URL+tc.path, append(body, " \n"...)); code != http.StatusOK {
			t.Fatalf("POST %s = %d (%s), want 200", tc.path, code, msg)
		}
		for _, trail := range []string{"{}", " x", `{"version":1}`, "]"} {
			if code, msg := doReq(t, http.MethodPost, srv.URL+tc.path, append(body, trail...)); code != http.StatusBadRequest {
				t.Errorf("POST %s followed by %q = %d (%s), want 400", tc.path, trail, code, msg)
			}
		}
	}
}

// TestUnknownRequestFieldIsABadRequest pins that a request body carrying a
// field its type lacks is refused by name instead of decoded without it: a
// misspelled cap once ran, and cached, a sweep at the default, and a field
// a past wire version carried would be dropped the same way. Each body is
// accepted without the field, so the field alone is what is refused.
func TestUnknownRequestFieldIsABadRequest(t *testing.T) {
	_, srv := newLoopback(t)
	sw := `{"spec":"queue","ops":["send"],"kernels":["memq"]}`
	claim := fmt.Sprintf(`{"version":%d,"worker":"w","max":1,"sweep":%s}`, api.Version, sw)
	if code, msg := doReq(t, http.MethodPost, srv.URL+api.PathFleetClaim, []byte(claim)); code != http.StatusOK {
		t.Fatalf("fleet claim = %d (%s), want 200", code, msg)
	}
	for _, tc := range []struct {
		path, body, field string // body's %s is where the field goes
	}{
		{api.PathAnalyze, `{"version":%d,"op_a":"send","op_b":"send","options":{%s"spec":"queue"}}`, `"max_paths":8,`},
		{api.PathSweep, `{"version":%d,"options":{%s"spec":"queue","ops":"send"}}`, `"max_paths":8,`},
		{api.PathSweep, `{"version":%d,"options":{%s"spec":"queue","ops":"send"}}`, `"max_test_per_path":1,`},
		{api.PathFleetResult, `{"version":%d,"worker":"w","sweep":` + sw + `,"results":[{"lease":"x",%s"pair":{"op_a":"send","op_b":"send","tests":0}}]}`,
			`"testgen_key":"0011223344556677",`},
	} {
		if code, msg := doReq(t, http.MethodPost, srv.URL+tc.path, fmt.Appendf(nil, tc.body, api.Version, "")); code != http.StatusOK {
			t.Fatalf("POST %s without %s = %d (%s), want 200", tc.path, tc.field, code, msg)
		}
		name, _, _ := strings.Cut(tc.field, ":")
		code, msg := doReq(t, http.MethodPost, srv.URL+tc.path, fmt.Appendf(nil, tc.body, api.Version, tc.field))
		var ae api.Error
		if err := json.Unmarshal(msg, &ae); err != nil || code != http.StatusBadRequest ||
			ae.Code != api.CodeBadRequest || !strings.Contains(ae.Message, name) {
			t.Errorf("POST %s with %s = %d (%s), want a 400 bad request naming %s", tc.path, tc.field, code, msg, name)
		}
	}
}

// TestNegativeCapIsABadRequest pins that a cap below zero is refused, not
// run: a negative per-path cap once cut rename/rename from 38 tests to 24,
// reported complete and cached. The local binding, every served route that
// reads the cap and the fleet coordinator answer a bad request (a 400, or
// for the streamed sweep its bad_request error frame), and nothing reaches
// the cache.
func TestNegativeCapIsABadRequest(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	capOpt := commuter.WithTestsPerPath(-1)
	if _, err := commuter.Local().GenerateTests(ctx, "rename", "rename", capOpt); !commuter.IsBadRequest(err) {
		t.Errorf("GenerateTests with a negative cap: %v, want a bad request", err)
	}
	if _, err := commuter.Local().Analyze(ctx, "rename", "rename", capOpt); !commuter.IsBadRequest(err) {
		t.Errorf("Analyze with a negative cap: %v, want a bad request", err)
	}
	if _, err := commuter.Local().Sweep(ctx, commuter.WithOps("rename", "unlink"), commuter.WithCache(dir), capOpt); !commuter.IsBadRequest(err) {
		t.Errorf("Sweep with a negative cap: %v, want a bad request", err)
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 0 {
		t.Errorf("refused sweeps left %d cache entries (err %v), want none", len(entries), err)
	}

	remote, srv := newLoopback(t)
	if _, err := remote.GenerateTests(ctx, "rename", "rename", commuter.WithTestsPerPath(-1)); !commuter.IsBadRequest(err) {
		t.Errorf("a Dial client's GenerateTests with a negative cap: %v, want a bad request", err)
	}
	for _, tc := range []struct {
		path string
		req  any
	}{
		{api.PathAnalyze, api.AnalyzeRequest{Version: api.Version, OpA: "rename", OpB: "rename", Options: api.Options{MaxTestsPerPath: -1}}},
		{api.PathTestgen, api.TestgenRequest{Version: api.Version, OpA: "rename", OpB: "rename", Options: api.Options{MaxTestsPerPath: -1}}},
		{api.PathSweep, api.SweepRequest{Version: api.Version, Options: api.Options{Ops: "rename,unlink", MaxTestsPerPath: -1}}},
		{api.PathFleetClaim, sweep.FleetClaimRequest{Version: sweep.FleetAPIVersion, Worker: "w", Max: 1,
			Sweep: sweep.FleetSweepSpec{Spec: "posix", Ops: []string{"rename"}, Kernels: []string{"sv6"}, MaxTestsPerPath: -1}}},
	} {
		body, err := json.Marshal(tc.req)
		if err != nil {
			t.Fatal(err)
		}
		want := http.StatusBadRequest
		if tc.path == api.PathSweep {
			want = http.StatusOK
		}
		code, msg := doReq(t, http.MethodPost, srv.URL+tc.path, body)
		if code != want || !strings.Contains(string(msg), "max_tests_per_path") ||
			tc.path != api.PathFleetClaim && !strings.Contains(string(msg), `"code":"bad_request"`) {
			t.Errorf("POST %s with a negative cap = %d (%s), want %d and a bad request naming the cap", tc.path, code, msg, want)
		}
	}
}

// TestTwoServersSharedCache is the fleet topology acceptance test: server
// A hosts the cache, server B uses A as its backend over HTTP, and a
// sweep that warmed A makes B's first-ever sweep all hits — B recomputes
// nothing a fleet peer already computed.
func TestTwoServersSharedCache(t *testing.T) {
	if testing.Short() {
		t.Skip("pipeline in -short mode")
	}
	ctx := context.Background()
	opts := []commuter.Option{commuter.WithOps("stat", "lseek", "close")}

	srvA := newCacheServer(t, sweep.NewMemBackend(0))
	peer, err := sweep.NewHTTPBackend(srvA.URL)
	if err != nil {
		t.Fatal(err)
	}
	srvB := newCacheServer(t, peer)

	cliA, err := commuter.Dial(srvA.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer cliA.Close()
	cliB, err := commuter.Dial(srvB.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer cliB.Close()

	// Warm the fleet through A.
	warm, err := cliA.Sweep(ctx, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Cache.TestgenMisses == 0 {
		t.Fatalf("warming sweep was not cold: %+v", warm.Cache)
	}

	// B's first sweep ever: every entry comes from A, nothing recomputes.
	shared, err := cliB.Sweep(ctx, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if shared.Cache.TestgenMisses != 0 || shared.Cache.CheckMisses != 0 {
		t.Errorf("sweep through B recomputed: %+v", shared.Cache)
	}
	cells := 0
	for _, p := range shared.Pairs {
		cells += len(p.Cells)
	}
	if want := (commuter.SweepCacheStats{CheckHits: cells}); cells == 0 || shared.Cache != want {
		t.Errorf("sweep through B: %+v, want every cell A stored as a hit and no test read: %+v", shared.Cache, want)
	}
	for _, p := range shared.Pairs {
		if !p.Cached {
			t.Errorf("pair %s recomputed on B", p.Pair())
		}
	}

	// And the payloads agree across the fleet.
	if fmt.Sprint(stripTimings(warm).Pairs) != fmt.Sprint(stripTimings(shared).Pairs) {
		t.Error("A's computed sweep and B's shared sweep disagree")
	}
}
