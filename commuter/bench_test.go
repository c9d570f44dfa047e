package commuter_test

import (
	"context"
	"testing"

	"repro/commuter"
)

// BenchmarkColdSweep is one iteration of the benchmark's cold_sweep
// workload: an uncached in-process sweep of every op of every spec at two
// workers. It is where a cold sweep's allocation goes:
//
//	go test -run '^$' -bench ColdSweep -benchmem -memprofile mem.prof ./commuter
//	go tool pprof -sample_index=alloc_space -top commuter.test mem.prof
func BenchmarkColdSweep(b *testing.B) {
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, name := range commuter.Specs() {
			if _, err := commuter.Local().Sweep(ctx, commuter.WithSpec(name), commuter.WithOpSet("all"), commuter.WithWorkers(2)); err != nil {
				b.Fatal(err)
			}
		}
	}
}
