package main

import (
	"testing"

	"repro/internal/model"
	"repro/internal/spec"
)

// opNames resolves an -ops selector the way the client the CLI hands it
// to does.
func opNames(t *testing.T, sel string) []string {
	t.Helper()
	ops, err := spec.OpSet(model.Spec, sel)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(ops))
	for i, op := range ops {
		names[i] = op.Name
	}
	return names
}

// TestOpSetDedupes pins that a comma list with repeats enumerates each op
// once, in first-appearance order — "open,open" must not triple-count the
// open/open pair in matrix totals.
func TestOpSetDedupes(t *testing.T) {
	for _, tc := range []struct {
		sel  string
		want []string
	}{
		{"open,open", []string{"open"}},
		{"open,rename,open", []string{"open", "rename"}},
		{"rename, open ,rename,open", []string{"rename", "open"}},
		{"stat", []string{"stat"}},
	} {
		got := opNames(t, tc.sel)
		if len(got) != len(tc.want) {
			t.Errorf("opSet(%q) = %v, want %v", tc.sel, got, tc.want)
			continue
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("opSet(%q) = %v, want %v", tc.sel, got, tc.want)
				break
			}
		}
	}
}

// TestOpSetNamedUniverses pins the named universes' sizes so the dedupe
// path can't accidentally shadow them.
func TestOpSetNamedUniverses(t *testing.T) {
	if got := opNames(t, "fs"); len(got) != 9 {
		t.Errorf(`opSet("fs") has %d ops, want 9`, len(got))
	}
	if got := opNames(t, "all"); len(got) != 18 {
		t.Errorf(`opSet("all") has %d ops, want 18`, len(got))
	}
}
