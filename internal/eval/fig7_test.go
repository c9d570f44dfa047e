package eval

import (
	"flag"
	"os"
	"strings"
	"testing"
)

var updateFig7 = flag.Bool("update", false, "rewrite testdata/fig7.golden")

// TestFigure7Golden pins the three Figure 7 benchmarks at 1, 2 and 4 cores,
// as `scalebench -cores 1,2,4` prints them. The curves replay sv6's access
// order and cell identities through the MESI simulator, statbench's shared
// st_nlink curve included, which no generated test runs: a kernel refactor
// that keeps the CHECK verdicts but reorders, merges or splits cells shows
// up here. Regenerate with -update only when changing a curve is the point.
func TestFigure7Golden(t *testing.T) {
	var b strings.Builder
	if err := Figure7(&b, "all", []int{1, 2, 4}); err != nil {
		t.Fatal(err)
	}
	const path = "testdata/fig7.golden"
	if *updateFig7 {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if b.String() != string(want) {
		t.Errorf("Figure 7 curves changed:\n got:\n%s\nwant:\n%s", b.String(), want)
	}
}
