package analyzer

import (
	"context"
	"runtime"
	"strings"
	"testing"

	"repro/internal/model"
	"repro/internal/spec"
	"repro/internal/sym"
)

// scratchSites are the functions that build the equivalence conditions'
// lists and an exploration's tables, which a warm Solver's region keeps.
var scratchSites = map[string]bool{
	"repro/internal/symx.DictsEquivalent":     true,
	"repro/internal/symx.unionKeys":           true,
	"repro/internal/symx.fieldSet":            true,
	"repro/internal/symx.(*Dict).entryGuards": true,
	"repro/internal/symx.newContext":          true,
	"repro/internal/symx.(*store).context":    true,
	"repro/internal/symx.(*Context).next":     true,
}

// allocsAt returns, per function of sites, the objects allocated so far
// whose innermost frame of this module is that function, as the memory
// profile holds them after a collection.
func allocsAt(sites map[string]bool) map[string]int64 {
	runtime.GC()
	var recs []runtime.MemProfileRecord
	n, _ := runtime.MemProfile(nil, true)
	for {
		recs = make([]runtime.MemProfileRecord, n+64)
		var ok bool
		if n, ok = runtime.MemProfile(recs, true); ok {
			recs = recs[:n]
			break
		}
	}
	out := map[string]int64{}
	for _, r := range recs {
		frames := runtime.CallersFrames(r.Stack())
		for {
			f, more := frames.Next()
			if strings.HasPrefix(f.Function, "repro/") {
				if sites[f.Function] {
					out[f.Function] += r.AllocObjects
				}
				break
			}
			if !more {
				break
			}
		}
	}
	return out
}

// TestWarmEquivalenceAllocatesNothing: on a warm Solver, forgotten before
// each pair as a sweep worker's is, a second analysis of a pair allocates
// nothing in symx.DictsEquivalent (its key, field and guard lists) or in
// the set-up of the exploration (its Context and tables): both are the
// storage of a Context the Solver's region hands out again. Allocations are
// read from a memory profile that samples every one of them.
func TestWarmEquivalenceAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	rate := runtime.MemProfileRate
	runtime.MemProfileRate = 1
	defer func() { runtime.MemProfileRate = rate }()
	solver := &sym.Solver{}
	for _, p := range [][2]string{{"rename", "rename"}, {"open", "open"}, {"pipe", "read"}, {"write", "pwrite"}, {"mmap", "memwrite"}} {
		opA, errA := spec.OpByName(model.Spec, p[0])
		opB, errB := spec.OpByName(model.Spec, p[1])
		if errA != nil || errB != nil {
			t.Fatal(errA, errB)
		}
		analyze := func() {
			solver.Forget()
			if _, err := AnalyzePairCtx(context.Background(), model.Spec, opA, opB, Options{Solver: solver}); err != nil {
				t.Fatal(err)
			}
		}
		analyze()
		before := allocsAt(scratchSites)
		analyze()
		after := allocsAt(scratchSites)
		for site, n := range after {
			if n -= before[site]; n != 0 {
				t.Errorf("%s/%s: a warm analysis allocates %d objects in %s, want 0", p[0], p[1], n, site)
			}
		}
	}
}
