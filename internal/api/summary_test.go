package api

import (
	"strings"
	"testing"
)

// TestSummaryReportsUnknown pins the analyze-output surface: a pair with
// budget-truncated paths says so instead of reading as "never commutes".
func TestSummaryReportsUnknown(t *testing.T) {
	a := Analysis{OpA: "a", OpB: "b", Paths: 2, Commutative: 1, Unknown: 1}
	if s := a.Summary(); !strings.Contains(s, "1 unknown (solver budget exhausted)") {
		t.Errorf("summary does not surface the budget flag: %q", s)
	}
	a.Unknown = 0
	if s := a.Summary(); strings.Contains(s, "unknown") {
		t.Errorf("clean summary mentions unknown: %q", s)
	}
}
