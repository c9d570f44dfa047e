package pins_test

import (
	"testing"

	_ "repro/internal/kvspec"
	_ "repro/internal/model"
	"repro/internal/pins"
	_ "repro/internal/queuespec"
	"repro/internal/spec"
	_ "repro/internal/vmspec"
)

// TestEveryRegisteredNameIsPinned holds the committed digests to the
// registry: every spec has a corpus line and every Impl a trace line, so
// each of their cache entries is keyed by its verdicts. A name with no line
// keys on its name and options alone.
func TestEveryRegisteredNameIsPinned(t *testing.T) {
	for _, name := range spec.Names() {
		sp, err := spec.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		if len(pins.Current.Spec(name)) != 32 {
			t.Errorf("spec %s has no corpus.digest line", name)
		}
		for _, im := range sp.Impls() {
			if len(pins.Current.Impl(im.Name)) != 32 {
				t.Errorf("%s implementation %s has no trace.digest line", name, im.Name)
			}
		}
	}
	if pins.Current.Spec("counting") != "" || pins.Current.Impl("counting") != "" {
		t.Error("a name with no line has a pin")
	}
}
