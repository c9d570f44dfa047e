package main

import (
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestBadArgumentsRejected runs the built binary: it renders one panel, so
// a second positional argument exits 2 with a message that names it, and
// so does a core count Figure 7 cannot simulate, before any panel is drawn.
func TestBadArgumentsRejected(t *testing.T) {
	gocmd, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go command to build the binary with")
	}
	bin := filepath.Join(t.TempDir(), "scalebench")
	if out, err := exec.Command(gocmd, "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-cores", "1", "stat", "open"}, "open"},
		{[]string{"stat", "open", "mail"}, "open mail"},
		{[]string{"-cores", "0", "stat"}, "count 0 "},
		{[]string{"-cores", "1,97", "stat"}, "count 97 "},
	} {
		out, err := exec.Command(bin, tc.args...).CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("scalebench %s: err = %v, want exit status 2\n%s", strings.Join(tc.args, " "), err, out)
			continue
		}
		if !strings.Contains(string(out), tc.want) || strings.Contains(string(out), "Figure 7") {
			t.Errorf("scalebench %s: want only a message naming %q, got:\n%s", strings.Join(tc.args, " "), tc.want, out)
		}
	}
}
