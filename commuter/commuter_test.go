package commuter_test

import (
	"strings"
	"testing"

	"repro/commuter"
	"repro/internal/eval"
)

func TestOpNames(t *testing.T) {
	names := commuter.OpNames()
	if len(names) != 18 {
		t.Fatalf("want 18 ops, got %d", len(names))
	}
	if names[0] != "open" || names[17] != "memwrite" {
		t.Errorf("unexpected op order: %v", names)
	}
}

// TestCurveHelpers checks the Figure 7 helpers this package used to
// re-export. They run on the coherence simulator, not the pipeline, so they
// left the façade; internal/eval holds them, and eval.Figure7 is their one
// renderer.
func TestCurveHelpers(t *testing.T) {
	c := eval.Statbench(eval.StatFstatx, []int{1, 2})
	if len(c.PerSec) != 2 || c.PerSec[0] <= 0 {
		t.Errorf("statbench curve: %+v", c)
	}
	var out strings.Builder
	if err := eval.Figure7(&out, "stat", []int{1, 2}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), c.Name) {
		t.Errorf("Figure7 stat panel lacks the %q curve:\n%s", c.Name, out.String())
	}
	if len(eval.DefaultCores) == 0 || eval.DefaultCores[len(eval.DefaultCores)-1] != 80 {
		t.Errorf("DefaultCores = %v", eval.DefaultCores)
	}
}
