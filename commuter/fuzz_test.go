package commuter_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"repro/commuter"
	"repro/internal/api"
)

// fuzzLimit is the time one input may take, FuzzReplayerAdmits' bound: a
// fixed allowance plus a budget per input byte.
func fuzzLimit(data []byte) time.Duration {
	return 100*time.Millisecond + time.Duration(len(data))*20*time.Microsecond
}

// goldenLine reads one wire golden compacted onto a single line.
func goldenLine(f *testing.F, file string) []byte {
	data, err := os.ReadFile(filepath.Join("..", "internal", "api", "testdata", file))
	if err != nil {
		f.Fatal(err)
	}
	var line bytes.Buffer
	if err := json.Compact(&line, data); err != nil {
		f.Fatal(err)
	}
	return append(line.Bytes(), '\n')
}

// FuzzDialSweepStream serves the input to a Dial client as a /v1/sweep
// NDJSON body: the stream yields zero or more updates, each carrying its
// pair, and then exactly one terminal element, a result or an error — never a panic, never a run longer
// than a bound per input byte. Seeds are the frame goldens as the server
// writes them, one per line, concatenated and truncated, and an update
// frame without its pair ahead of a result, which ends the stream in an
// error.
func FuzzDialSweepStream(f *testing.F) {
	update := goldenLine(f, "frame_update.golden.json")
	for _, terminal := range []string{"frame_result.golden.json", "frame_result_vm.golden.json", "frame_error.golden.json"} {
		body := append(append(bytes.Clone(update), update...), goldenLine(f, terminal)...)
		for _, n := range []int{len(body), len(body) - 2, len(body) / 2, len(update) - 1, 0} {
			f.Add(body[:n])
		}
	}
	var bare api.Frame
	if err := json.Unmarshal(update, &bare); err != nil {
		f.Fatal(err)
	}
	bare.Pair = nil
	pairless, err := json.Marshal(bare)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(append(append(pairless, '\n'), goldenLine(f, "frame_result.golden.json")...))
	var body atomic.Pointer[[]byte]
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.Write(*body.Load())
	}))
	defer srv.Close()
	cli, err := commuter.Dial(srv.URL)
	if err != nil {
		f.Fatal(err)
	}
	defer cli.Close()
	f.Fuzz(func(t *testing.T, data []byte) {
		body.Store(&data)
		start := time.Now()
		updates, terminals := 0, 0
		for upd, err := range cli.SweepStream(context.Background(), commuter.WithSpec("queue")) {
			if terminals != 0 {
				t.Fatalf("an element after the terminal one: %+v, %v", upd, err)
			}
			if err != nil || upd.Result != nil {
				terminals++
				continue
			}
			if upd.Pair == nil {
				t.Fatalf("an update without its pair: %+v", upd)
			}
			updates++
		}
		if terminals != 1 {
			t.Fatalf("%d updates and no terminal element", updates)
		}
		if d, limit := time.Since(start), fuzzLimit(data); d > limit {
			t.Fatalf("%d input bytes took %v (limit %v)", len(data), d, limit)
		}
	})
}

// FuzzFleetBodies posts the input to a server's fleet claim and result
// routes: each answers a 400, or a 2xx whose body decodes as the route's
// response — never a panic or a 500, never a run longer than a bound per
// input byte. Seeds are the fleet request goldens, whole and truncated.
func FuzzFleetBodies(f *testing.F) {
	for _, file := range []string{"fleet_claim_request.golden.json", "fleet_result_request.golden.json"} {
		data := goldenLine(f, file)
		f.Add(data)
		f.Add(data[:len(data)/2])
	}
	quiet := commuter.ServeWithLogger(slog.New(slog.NewTextHandler(io.Discard, nil)))
	routes := []struct {
		path string
		resp func() any
	}{
		{api.PathFleetClaim, func() any { return new(api.FleetClaimResponse) }},
		{api.PathFleetResult, func() any { return new(api.FleetResultResponse) }},
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		h, err := commuter.NewServerHandler(commuter.Local(), quiet)
		if err != nil {
			t.Fatal(err)
		}
		for _, rt := range routes {
			rec := httptest.NewRecorder()
			start := time.Now()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, rt.path, bytes.NewReader(data)))
			if d, limit := time.Since(start), fuzzLimit(data); d > limit {
				t.Fatalf("%s: %d input bytes took %v (limit %v)", rt.path, len(data), d, limit)
			}
			switch {
			case rec.Code == http.StatusBadRequest:
			case rec.Code/100 == 2:
				if err := json.Unmarshal(rec.Body.Bytes(), rt.resp()); err != nil {
					t.Fatalf("%s: %d with a body that does not decode (%v): %s", rt.path, rec.Code, err, rec.Body)
				}
			default:
				t.Fatalf("%s: %d %s", rt.path, rec.Code, rec.Body)
			}
		}
	})
}
