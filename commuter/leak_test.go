package commuter_test

import (
	"context"
	"os"
	"runtime"
	"testing"

	"repro/commuter"
	"repro/internal/sym"
)

// TestRepeatedSweepsKeepHeapFlat pins what a long-lived process — `commuter
// serve` — keeps of a sweep once its result is dropped: nothing that grows.
// The same sweeps run six times over; from the second round on (the first
// fills the process-wide tables: variable ids, base constants, op tables,
// metric series) the live heap after a collection stays in one band. A
// pair's expressions live in its worker's scope, which the next pair
// clears, and the worker and its scope end with the sweep; that the base
// table, the one intern table a process keeps, stops growing is
// internal/sym's TestBaseTableHoldsConstantsAndStopsGrowing.
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
	sweepAll := func() {
		for _, opts := range universe {
			if _, err := commuter.Local().Sweep(context.Background(), opts...); err != nil {
				t.Fatal(err)
			}
		}
		runtime.GC()
	}
	const slack = 1.15
	var objects2 float64
	for round := 1; round <= rounds; round++ {
		sweepAll()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		objects := float64(ms.HeapObjects)
		t.Logf("round %d: %.0f live heap objects (%.1f MB), %d base constants",
			round, objects, float64(ms.HeapAlloc)/1e6, sym.InternSize())
		switch {
		case round == 2:
			objects2 = objects
		case round > 2 && objects > slack*objects2:
			t.Errorf("round %d: %.0f live heap objects, round 2 had %.0f: the process keeps part of every sweep", round, objects, objects2)
		}
	}
}
