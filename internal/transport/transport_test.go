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

// TestBytesRefusesAnAnswerPastTheBound: a body that ends at the bound comes
// back whole; one byte more is an error naming the bound and the route, not
// the first maxBody bytes with a nil error.
func TestBytesRefusesAnAnswerPastTheBound(t *testing.T) {
	defer func(old int64) { maxBody = old }(maxBody)
	maxBody = 1 << 10
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := int(maxBody)
		if r.URL.Path == "/over" {
			n++
		}
		for ; n > 0; n -= 256 {
			w.Write([]byte(strings.Repeat("x", min(n, 256))))
			w.(http.Flusher).Flush()
		}
	}))
	defer srv.Close()
	c, err := New(srv.URL, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c.CloseIdle()
	if data, err := c.Bytes(context.Background(), http.MethodGet, "/at", nil); err != nil || int64(len(data)) != maxBody {
		t.Errorf("a body of exactly the bound = %d bytes, %v", len(data), err)
	}
	data, err := c.Bytes(context.Background(), http.MethodGet, "/over", nil)
	if err == nil || data != nil || !strings.Contains(err.Error(), "GET /over") || !strings.Contains(err.Error(), "1024-byte bound") {
		t.Errorf("a body one byte past the bound = %d bytes, %v; want an error naming the route and the bound", len(data), err)
	}
}
