package main

import (
	"io"
	"os"
	"strings"
	"testing"
)

// TestMainAnalyzesRename runs the example and checks its headline, the
// rename pair's summary.
func TestMainAnalyzesRename(t *testing.T) {
	if out := stdoutOf(t, main); !strings.Contains(out, "rename x rename: 55 paths") {
		t.Errorf("output lacks %q:\n%s", "rename x rename: 55 paths", out)
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
