package transport

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestNewValidatesBaseURL(t *testing.T) {
	for _, bad := range []string{"", "localhost:1", "ftp://x", "http://", "://"} {
		if _, err := New(bad, 0); err == nil {
			t.Errorf("New(%q) accepted", bad)
		}
	}
	c, err := New("http://localhost:1/", 0)
	if err != nil || c.String() != "http://localhost:1" {
		t.Errorf("New(valid) = %v, %v", c, err)
	}
}

// TestExchange pins the contract the three clients word their errors on: a
// 2xx body comes back whole, a body reaches the server as JSON, a non-2xx
// answer is a StatusError carrying the request line and a bounded body, and
// the caller's cancellation is the bare context error.
func TestExchange(t *testing.T) {
	blocked := make(chan struct{})
	defer close(blocked)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/echo":
			w.Header().Set("X-Content-Type", r.Header.Get("Content-Type"))
			w.WriteHeader(http.StatusCreated)
			w.Write([]byte(r.Method + " " + r.URL.RawQuery))
		case "/teapot":
			w.WriteHeader(http.StatusTeapot)
			w.Write([]byte(strings.Repeat("x", 1<<20)))
		case "/hang":
			select {
			case <-blocked:
			case <-r.Context().Done():
			}
		}
	}))
	defer srv.Close()
	c, err := New(srv.URL, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c.CloseIdle()
	ctx := context.Background()

	if data, err := c.Bytes(ctx, http.MethodGet, "/echo?a=b", nil); err != nil || string(data) != "GET a=b" {
		t.Errorf("GET = %q, %v", data, err)
	}
	resp, err := c.Do(ctx, http.MethodPut, "/echo", []byte(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Content-Type"); got != "application/json" {
		t.Errorf("request Content-Type = %q, want application/json", got)
	}

	_, err = c.Bytes(ctx, http.MethodPost, "/teapot", []byte(`{}`))
	var se *StatusError
	if !errors.As(err, &se) {
		t.Fatalf("non-2xx = %v, want a StatusError", err)
	}
	if se.Method != http.MethodPost || se.Path != "/teapot" || !strings.HasPrefix(se.Status, "418") || len(se.Body) != 64<<10 {
		t.Errorf("non-2xx = %s %s: %s with %d bytes of body, want POST /teapot: 418 with 64 KiB", se.Method, se.Path, se.Status, len(se.Body))
	}

	cctx, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := c.Bytes(cctx, http.MethodGet, "/hang", nil); err != context.Canceled {
		t.Errorf("cancelled call = %v, want the bare context.Canceled", err)
	}
}
