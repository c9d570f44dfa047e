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
// fills the process-wide tables: variable ids, op tables, metric series)
// the live heap after a collection and the intern table stay in one band.
// The intern table used never to sweep its collected entries, and every
// cold sweep left ~64k objects behind.
//
// Both numbers are read after sym.SweepInternTable. A shard sweeps when it
// has taken as many insertions as its last sweep left entries, so what the
// table holds when a round ends — all of it collected by then — is a point
// on 64 sawtooths that moves between rounds by more than the band (2.0k-3.0k
// entries); swept, it is the live expressions alone. That the shards sweep
// themselves is held apart: a round leaves under half of what it inserted
// (a quarter here), where a table that never sweeps keeps all of it.
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
	const slack = 1.15
	var objects2, intern2 float64
	for round := 1; round <= rounds; round++ {
		_, inserted := sym.InternStats()
		for _, opts := range universe {
			if _, err := commuter.Local().Sweep(context.Background(), opts...); err != nil {
				t.Fatal(err)
			}
		}
		// Twice: the first collection clears the weak pointers and queues
		// what they guarded, the second frees it.
		runtime.GC()
		runtime.GC()
		_, total := sym.InternStats()
		if left := uint64(sym.InternSize()); 2*left > total-inserted {
			t.Errorf("round %d: the intern table still holds %d of the %d entries the round inserted: its shards do not sweep themselves", round, left, total-inserted)
		}
		sym.SweepInternTable()
		runtime.GC() // the swept entries' handles and buckets
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		objects, intern := float64(ms.HeapObjects), float64(sym.InternSize())
		t.Logf("round %d: %.0f live heap objects (%.1f MB), %.0f intern-table entries",
			round, objects, float64(ms.HeapAlloc)/1e6, intern)
		switch {
		case round == 2:
			objects2, intern2 = objects, intern
		case round > 2 && objects > slack*objects2:
			t.Errorf("round %d: %.0f live heap objects, round 2 had %.0f: the process keeps part of every sweep", round, objects, objects2)
		case round > 2 && intern > slack*intern2:
			t.Errorf("round %d: %.0f intern-table entries, round 2 had %.0f: the process keeps expressions of every sweep", round, intern, intern2)
		}
	}
}
