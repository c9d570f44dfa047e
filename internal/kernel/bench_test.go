package kernel_test

import (
	"testing"

	_ "repro/internal/kvspec"    // registers the "kv" spec
	_ "repro/internal/model"     // registers the "posix" spec
	_ "repro/internal/queuespec" // registers the "queue" spec
	"repro/internal/spec"
	_ "repro/internal/vmspec" // registers the "vm" spec
)

// BenchmarkNewKernel measures building one kernel of every registered
// implementation. The engine builds one per kernel per sweep worker (a
// Replayer each), and Client.Check and CheckTestsCtx one per call;
// allocs/op is the number to watch.
func BenchmarkNewKernel(b *testing.B) {
	for _, name := range spec.Names() {
		sp, err := spec.Lookup(name)
		if err != nil {
			b.Fatal(err)
		}
		for _, im := range sp.Impls() {
			b.Run(im.Name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if im.New() == nil {
						b.Fatal("no kernel")
					}
				}
			})
		}
	}
}
