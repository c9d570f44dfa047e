package kerneltest_test

import (
	"testing"

	"repro/internal/kernel/kerneltest"
	_ "repro/internal/kvspec"    // registers the "kv" spec
	_ "repro/internal/model"     // registers the "posix" spec
	_ "repro/internal/queuespec" // registers the "queue" spec
	"repro/internal/spec"
	_ "repro/internal/vmspec" // registers the "vm" spec
)

// TestRegisteredImpls runs both harnesses over every Impl of every
// registered spec, so a kernel is covered by registering it; a spec
// without a generator fails here until kerneltest.Gens gains one.
func TestRegisteredImpls(t *testing.T) {
	for _, name := range spec.Names() {
		sp, err := spec.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		gen, ok := kerneltest.Gens[name]
		if !ok {
			t.Errorf("spec %s has no entry in kerneltest.Gens", name)
			continue
		}
		for _, im := range sp.Impls() {
			t.Run(name+"/"+im.Name+"/replay", func(t *testing.T) {
				kerneltest.ReplayMatchesFresh(t, im.New, gen)
			})
			t.Run(name+"/"+im.Name+"/online", func(t *testing.T) {
				kerneltest.OnlineMatchesOracle(t, im.New, gen)
			})
		}
	}
}
