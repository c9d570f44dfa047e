package sweep

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/spec"
)

// tinyConfig is the smallest real pipeline run: one pair (stat/stat), one
// kernel. Phase-accounting tests need real work, not mocks, but not much
// of it.
func tinyConfig(t testing.TB) Config {
	op := testOp(t, "stat")
	return Config{Ops: []*spec.Op{op}, Kernels: testKernels()[:1], Workers: 1}
}

// TestPhaseBreakdown pins the per-pair observability record: a computed
// pair reports every phase, solver work, and phase sums consistent with
// its elapsed wall time; a fully cached pair reports none of it.
func TestPhaseBreakdown(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep pipeline in -short mode")
	}
	cfg := tinyConfig(t)
	cache, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg.Cache = cache

	cold, err := runSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := cold.Pairs[0]
	if p.Phases.AnalyzeMS <= 0 || p.Phases.TestgenMS <= 0 || p.Phases.CheckMS <= 0 {
		t.Errorf("computed pair is missing phase times: %+v", p.Phases)
	}
	if sum := p.Phases.AnalyzeMS + p.Phases.TestgenMS + p.Phases.CheckMS; sum > p.ElapsedMS {
		t.Errorf("phase sum %v ms exceeds pair elapsed %v ms", sum, p.ElapsedMS)
	}
	// Solver search time happens inside the analyze and testgen phases.
	if p.Phases.SolverMS > p.Phases.AnalyzeMS+p.Phases.TestgenMS {
		t.Errorf("solver time %v ms exceeds its enclosing phases %v ms",
			p.Phases.SolverMS, p.Phases.AnalyzeMS+p.Phases.TestgenMS)
	}
	if p.Solver.SatCalls <= 0 {
		t.Errorf("computed pair reports %d SAT calls", p.Solver.SatCalls)
	}
	if p.Solver.InternHits <= 0 {
		t.Errorf("computed pair reports %d intern hits", p.Solver.InternHits)
	}

	warm, err := runSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w := warm.Pairs[0]
	if !w.Cached {
		t.Fatal("warm pair was recomputed")
	}
	if w.Phases != (PhaseTimes{}) {
		t.Errorf("cached pair reports phase work: %+v", w.Phases)
	}
	if w.Solver.SatCalls != 0 || w.Solver.BudgetHits != 0 {
		t.Errorf("cached pair reports solver work: %+v", w.Solver)
	}
}

// TestWriteTrace pins the Chrome trace export: every pair becomes a span
// at its recorded offset, its phases nest inside it on the same lane, and
// cached pairs carry no phase children.
func TestWriteTrace(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep pipeline in -short mode")
	}
	cfg := tinyConfig(t)
	res, err := runSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	if err := WriteTrace(&b, res); err != nil {
		t.Fatal(err)
	}

	var file struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Cat  string  `json:"cat"`
			Ph   string  `json:"ph"`
			TS   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			TID  int     `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(b.Bytes(), &file); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}

	p := res.Pairs[0]
	var pairSpan, phaseSum float64
	pairTID := -1
	phases := 0
	for _, ev := range file.TraceEvents {
		if ev.Ph != "X" {
			t.Errorf("event %s: phase %q, want X", ev.Name, ev.Ph)
		}
		switch ev.Cat {
		case "pair":
			if ev.Name != p.Pair() {
				t.Errorf("pair span named %q, want %q", ev.Name, p.Pair())
			}
			pairSpan, pairTID = ev.Dur, ev.TID
			if ev.TS != p.StartMS*1e3 || ev.Dur != p.ElapsedMS*1e3 {
				t.Errorf("pair span at ts=%v dur=%v, want ts=%v dur=%v",
					ev.TS, ev.Dur, p.StartMS*1e3, p.ElapsedMS*1e3)
			}
		case "phase":
			phases++
			phaseSum += ev.Dur
		}
	}
	if phases != 3 {
		t.Fatalf("got %d phase spans, want 3 (analyze, testgen, check)", phases)
	}
	// The acceptance contract: phase spans nest inside their pair span,
	// so their durations sum to no more than the pair's ElapsedMS.
	if phaseSum > pairSpan {
		t.Errorf("phase spans sum to %v us, exceeding the pair span %v us", phaseSum, pairSpan)
	}
	for _, ev := range file.TraceEvents {
		if ev.Cat == "phase" && ev.TID != pairTID {
			t.Errorf("phase %s on lane %d, pair on lane %d", ev.Name, ev.TID, pairTID)
		}
	}

	// A cached pair renders as a bare span with no phase children.
	cached := &Result{Pairs: []PairResult{{OpA: "a", OpB: "b", Cached: true, ElapsedMS: 0.5}}}
	b.Reset()
	if err := WriteTrace(&b, cached); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b.Bytes(), &file); err != nil {
		t.Fatal(err)
	}
	if len(file.TraceEvents) != 1 || file.TraceEvents[0].Cat != "pair" {
		t.Errorf("cached pair rendered %d events, want 1 bare pair span", len(file.TraceEvents))
	}
}
