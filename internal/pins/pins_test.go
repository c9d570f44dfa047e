package pins_test

import (
	"os"
	"runtime"
	"strings"
	"testing"

	_ "repro/internal/kvspec"
	_ "repro/internal/model"
	"repro/internal/pins"
	_ "repro/internal/queuespec"
	"repro/internal/spec"
	_ "repro/internal/vmspec"
)

// TestEveryRegisteredNameIsPinned holds the committed digests to the
// registry: every spec has corpus lines and every Impl trace lines, so
// each of their cache entries is keyed by its verdicts; and every pair of
// every universe corpus.digest pins has a corpus line, and a trace line
// per Impl of its spec, so its entries are keyed by its own. A name with no
// line keys on its name and options alone.
func TestEveryRegisteredNameIsPinned(t *testing.T) {
	for _, name := range spec.Names() {
		sp, err := spec.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		if len(pins.Current.Pin(pins.Key{Spec: name})) != 32 {
			t.Errorf("spec %s has no corpus.digest line", name)
		}
		for _, im := range sp.Impls() {
			if len(pins.Current.Pin(pins.Key{Impl: im.Name})) != 32 {
				t.Errorf("%s implementation %s has no trace.digest line", name, im.Name)
			}
		}
	}
	if pins.Current.Pin(pins.Key{Spec: "counting"}) != "" || pins.Current.Pin(pins.Key{Impl: "counting"}) != "" {
		t.Error("a name with no line has a pin")
	}

	corpus, err := os.ReadFile("corpus.digest")
	if err != nil {
		t.Fatal(err)
	}
	universes := 0
	for line := range strings.Lines(string(corpus)) {
		f := strings.Fields(line)
		if len(f) != 4 {
			continue // a pair line
		}
		universes++
		name, set, _ := strings.Cut(f[0], "/")
		sp, err := spec.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		ops, err := spec.OpSet(sp, set)
		if err != nil {
			t.Fatal(err)
		}
		for i, a := range ops {
			for _, b := range ops[:i+1] {
				// Earlier op first, as the sweep runs a pair.
				pair := pins.Key{Spec: name, LowestFD: f[1] == "lowestfd=true", OpA: b.Name, OpB: a.Name}
				if pins.Current.Pin(pair) == pins.Current.Pin(pins.Key{Spec: name}) {
					t.Errorf("%s %s,%s has no corpus.digest line", f[0], b.Name, a.Name)
				}
				for _, im := range sp.Impls() {
					pair.Impl = im.Name
					if pins.Current.Pin(pair) == pins.Current.Pin(pins.Key{Impl: im.Name}) {
						t.Errorf("%s %s %s,%s has no trace.digest line", f[0], im.Name, b.Name, a.Name)
					}
				}
			}
		}
	}
	if universes != 5 {
		t.Errorf("corpus.digest pins %d universes, want 5", universes)
	}
}

// TestParseIsLinear bounds what Parse allocates on the committed digests,
// which every process that imports the package parses at init: at most
// three allocations a line and four bytes a byte of input, where a root
// built by appending its lines to a string costs over a hundred.
func TestParseIsLinear(t *testing.T) {
	var text [2]string
	for i, name := range []string{"corpus.digest", "trace.digest"} {
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		text[i] = string(data)
	}
	lines := strings.Count(text[0], "\n") + strings.Count(text[1], "\n")
	if n := testing.AllocsPerRun(10, func() { pins.Parse(text[0], text[1]) }); n > float64(3*lines) {
		t.Errorf("Parse: %v allocations for %d lines, want at most 3 a line", n, lines)
	}
	const runs = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		pins.Parse(text[0], text[1])
	}
	runtime.ReadMemStats(&after)
	size := len(text[0]) + len(text[1])
	if perRun := (after.TotalAlloc - before.TotalAlloc) / runs; perRun > uint64(4*size) {
		t.Errorf("Parse: %d bytes for %d bytes of digest, want at most 4 a byte", perRun, size)
	}
}
