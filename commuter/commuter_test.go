package commuter_test

import (
	"testing"

	"repro/commuter"
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

func TestCurveHelpers(t *testing.T) {
	c := commuter.Statbench(commuter.StatFstatx, []int{1, 2})
	if len(c.PerSec) != 2 || c.PerSec[0] <= 0 {
		t.Errorf("statbench curve: %+v", c)
	}
	out := commuter.FormatCurves("t", []commuter.Curve{c})
	if out == "" {
		t.Error("FormatCurves empty")
	}
	if len(commuter.DefaultCores) == 0 || commuter.DefaultCores[len(commuter.DefaultCores)-1] != 80 {
		t.Errorf("DefaultCores = %v", commuter.DefaultCores)
	}
}
