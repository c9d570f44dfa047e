package main

import (
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestStrayArgumentsRejected runs the built binary: every subcommand takes
// flags only, so a positional argument exits 2 with a message that names
// it, before the command does any work on its defaults.
func TestStrayArgumentsRejected(t *testing.T) {
	gocmd, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go command to build the binary with")
	}
	bin := filepath.Join(t.TempDir(), "commuter")
	if out, err := exec.Command(gocmd, "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, args := range [][]string{
		{"analyze", "stat,unlink"},
		{"testgen", "-pair", "open,open", "open,close"},
		{"sweep", "fs"},
		{"matrix", "-spec", "queue", "ordered"},
		{"serve", "-addr", "127.0.0.1:0", "extra"},
	} {
		out, err := exec.Command(bin, args...).CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("commuter %s: err = %v, want exit status 2\n%s", strings.Join(args, " "), err, out)
			continue
		}
		if stray := args[len(args)-1]; !strings.Contains(string(out), stray) {
			t.Errorf("commuter %s: message does not name %q:\n%s", strings.Join(args, " "), stray, out)
		}
	}
}
