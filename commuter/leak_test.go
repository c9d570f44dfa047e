package commuter_test

import (
	"context"
	"os"
	"runtime"
	"runtime/metrics"
	"testing"

	"repro/commuter"
	"repro/internal/sym"
)

// TestRepeatedSweepsKeepHeapFlat pins what a long-lived process — `commuter
// serve` — keeps of a sweep once its result is dropped: nothing that grows.
// The same sweeps run six times over; from the second round on (the first
// fills the process-wide tables: variable ids, base constants, op tables,
// metric series) the live heap after a collection stays in one band. A
// pair's expressions, dictionaries and states live in slabs its worker's
// Solver reuses from pair to pair, and the worker and its slabs end with
// the sweep; that the base table, the one intern table a process keeps,
// stops growing is internal/sym's TestBaseTableHoldsConstantsAndStopsGrowing.
//
// The live heap is what the collection marked (/gc/heap/live:bytes), not
// a count of heap objects read after it, which anything allocated between
// the collection and the read inflates. A round out of the band reports
// the goroutines running besides the test's.
//
// COMMUTER_LEAK_FULL=1 runs ten rounds of the benchmark's cold_sweep
// universe instead (every spec in full, ~1.5 s a round), for the drill in
// .claude/skills/verify; run with -v to see the series.
func TestRepeatedSweepsKeepHeapFlat(t *testing.T) {
	if testing.Short() {
		t.Skip("pipeline in -short mode")
	}
	rounds := 6
	universe := [][]commuter.Option{
		{commuter.WithSpec("queue"), commuter.WithOpSet("all")},
		{commuter.WithSpec("kv"), commuter.WithOpSet("all")},
		{commuter.WithSpec("posix"), commuter.WithOps("open", "close", "read", "write", "lseek", "stat")},
	}
	if os.Getenv("COMMUTER_LEAK_FULL") != "" {
		rounds, universe = 10, nil
		for _, name := range commuter.Specs() {
			universe = append(universe, []commuter.Option{commuter.WithSpec(name), commuter.WithOpSet("all")})
		}
	}
	live := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	sweepAll := func() float64 {
		for _, opts := range universe {
			if _, err := commuter.Local().Sweep(context.Background(), opts...); err != nil {
				t.Fatal(err)
			}
		}
		runtime.GC()
		metrics.Read(live)
		return float64(live[0].Value.Uint64())
	}
	const slack = 1.15
	var bytes2 float64
	for round := 1; round <= rounds; round++ {
		bytes := sweepAll()
		t.Logf("round %d: %.1f kB live after a collection, %d goroutines, %d base constants",
			round, bytes/1e3, runtime.NumGoroutine(), sym.InternSize())
		switch {
		case round == 2:
			bytes2 = bytes
		case round > 2 && bytes > slack*bytes2:
			buf := make([]byte, 1<<16)
			t.Errorf("round %d: %.1f kB live, round 2 had %.1f kB: the process keeps part of every sweep; goroutines:\n%s",
				round, bytes/1e3, bytes2/1e3, buf[:runtime.Stack(buf, true)])
		}
	}
}
