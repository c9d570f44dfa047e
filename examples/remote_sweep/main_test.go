package main

import (
	"io"
	"os"
	"strings"
	"testing"
)

// TestMainMatchesLocal runs the example: the sweep it streams from its
// loopback server must render the in-process matrix byte for byte.
func TestMainMatchesLocal(t *testing.T) {
	if out := stdoutOf(t, main); !strings.Contains(out, "remote matrix byte-identical to local: true") {
		t.Errorf("output lacks %q:\n%s", "remote matrix byte-identical to local: true", out)
	}
}

// stdoutOf runs f with os.Stdout redirected and returns what it wrote.
func stdoutOf(t *testing.T, f func()) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	read := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		r.Close()
		read <- b
	}()
	stdout := os.Stdout
	os.Stdout = w
	defer func() { os.Stdout = stdout }()
	f()
	w.Close()
	return string(<-read)
}
