package commuter_test

import (
	"context"
	"slices"
	"strings"
	"testing"

	"repro/commuter"
	"repro/internal/eval"
)

// TestOpNames pins the posix spec's operations as the Client lists them:
// the 18 modeled POSIX operations in Figure 6 order.
func TestOpNames(t *testing.T) {
	specs, err := commuter.Local().Specs(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	i := slices.IndexFunc(specs, func(s commuter.SpecInfo) bool { return s.Name == "posix" })
	if i < 0 {
		t.Fatalf("no posix spec in %+v", specs)
	}
	names := specs[i].Ops
	if len(names) != 18 {
		t.Fatalf("want 18 ops, got %d", len(names))
	}
	if names[0] != "open" || names[17] != "memwrite" {
		t.Errorf("unexpected op order: %v", names)
	}
}

// TestCurveHelpers checks the Figure 7 helpers this package used to
// re-export. They run on the coherence simulator, not the pipeline, so they
// left the façade; internal/eval holds them, and eval.Figure7, their one
// renderer, and eval.DefaultCores are all it exports.
func TestCurveHelpers(t *testing.T) {
	var out strings.Builder
	if err := eval.Figure7(&out, "stat", []int{1, 2}); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out.String(), "Figure 7(a)") {
		t.Errorf("Figure7 stat panel:\n%s", out.String())
	}
	if len(eval.DefaultCores) == 0 || eval.DefaultCores[len(eval.DefaultCores)-1] != 80 {
		t.Errorf("DefaultCores = %v", eval.DefaultCores)
	}
}
