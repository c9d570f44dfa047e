package main

import (
	"context"
	"io"
	"net"
	"net/http"
	"testing"
	"time"
)

// TestSlowHeaderConnectionClosed pins the serve listener's header timeout:
// a connection that starts a request and never finishes its headers is
// closed by the server, while a complete request on the same listener is
// served as usual.
func TestSlowHeaderConnectionClosed(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := newHTTPServer(http.NotFoundHandler(), context.Background(), 50*time.Millisecond)
	go srv.Serve(ln)
	defer srv.Close()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// A request line and one header, but never the blank line ending them.
	if _, err := io.WriteString(conn, "GET /healthz HTTP/1.1\r\nHost: slow\r\n"); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.ReadAll(conn); err != nil {
		if ne, ok := err.(net.Error); ok && ne.Timeout() {
			t.Fatalf("server kept a header-stalled connection open: %v", err)
		}
	}

	resp, err := http.Get("http://" + ln.Addr().String() + "/healthz")
	if err != nil {
		t.Fatalf("complete request failed: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("complete request: status %d, want the handler's 404", resp.StatusCode)
	}
}
