package analyzer

import (
	"strings"
	"testing"
)

func TestDescribeRename(t *testing.T) {
	r := analyze(t, "rename", "rename", Options{})
	descs := Describe(r)
	if len(descs) == 0 {
		t.Fatal("no descriptions for rename x rename")
	}
	joined := strings.Join(descs, "\n")
	// §5.1's classes must surface as clauses: failing sources, existence
	// facts, and distinctness constraints.
	for _, want := range []string{"absent", "exists", "≠"} {
		if !strings.Contains(joined, want) {
			t.Errorf("descriptions missing %q:\n%s", want, joined)
		}
	}
	// Self-rename class: src = dst must appear in some clause.
	if !strings.Contains(joined, "=") {
		t.Errorf("descriptions missing an equality clause:\n%s", joined)
	}
	t.Logf("rename x rename commutative situations:\n  %s", strings.Join(descs, "\n  "))
}

func TestDescribeReadOnlyPair(t *testing.T) {
	r := analyze(t, "stat", "stat", Options{})
	descs := Describe(r)
	if len(descs) == 0 {
		t.Fatal("no descriptions for stat x stat")
	}
	// stat x stat commutes in every situation, so at least one path's
	// description is fully unconstrained on flags beyond existence.
	t.Logf("stat x stat: %v", descs)
}

func TestShortNames(t *testing.T) {
	if got := short("rename.0.src"); got != "src0" {
		t.Errorf("short = %q", got)
	}
	if got := short("weird"); got != "weird" {
		t.Errorf("short fallback = %q", got)
	}
}

func TestDescribeDedupes(t *testing.T) {
	r := analyze(t, "close", "close", Options{})
	descs := Describe(r)
	seen := map[string]bool{}
	for _, d := range descs {
		if seen[d] {
			t.Errorf("duplicate description %q", d)
		}
		seen[d] = true
	}
}
