package analyzer

import (
	"context"
	"os"
	"strings"
	"testing"

	"repro/internal/sym"
)

func TestDescribeRename(t *testing.T) {
	r := analyze(t, "rename", "rename", Options{})
	descs := Describe(context.Background(), r)
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
	// The clause list itself, as every earlier commit printed it.
	want, err := os.ReadFile("testdata/describe_rename.golden")
	if err != nil {
		t.Fatal(err)
	}
	if joined+"\n" != string(want) {
		t.Errorf("rename x rename clauses changed:\n got:\n%s\nwant:\n%s", joined, want)
	}
}

// TestDescribeTruncatedProvesNothing pins that an answer the solver budget
// cut short is read as "free", never as an implication: with one search
// step no refutation completes, so no path may state an equality, a
// distinctness or an existence fact.
func TestDescribeTruncatedProvesNothing(t *testing.T) {
	r := analyze(t, "rename", "rename", Options{})
	for i, p := range r.CommutativePaths() {
		desc := describePath(&sym.Solver{MaxSteps: 1}, p)
		for _, clause := range []string{"=", "≠", "exists", "absent"} {
			if strings.Contains(desc, clause) {
				t.Errorf("path %d: truncated searches stated %q as a fact: %s", i, clause, desc)
			}
		}
	}
}

// TestDescribeCancelled pins that a description under an ended context
// returns promptly and states nothing.
func TestDescribeCancelled(t *testing.T) {
	r := analyze(t, "rename", "rename", Options{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if descs := Describe(ctx, r); len(descs) != 0 {
		t.Errorf("cancelled description returned clauses: %v", descs)
	}
}

func TestDescribeReadOnlyPair(t *testing.T) {
	r := analyze(t, "stat", "stat", Options{})
	descs := Describe(context.Background(), r)
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
	descs := Describe(context.Background(), r)
	seen := map[string]bool{}
	for _, d := range descs {
		if seen[d] {
			t.Errorf("duplicate description %q", d)
		}
		seen[d] = true
	}
}

// TestCanDivergeTruncatedProvesNothing pins that a divergence search the
// budget cut short reads as unknown, never as a proof that the path is
// order-independent: on every path of rename x rename a full budget
// proves so, one search step must answer "no, unknown".
func TestCanDivergeTruncatedProvesNothing(t *testing.T) {
	r := analyze(t, "rename", "rename", Options{})
	full, unknown := CanDiverge(context.Background(), r)
	proven := 0
	for i, p := range r.Paths {
		if unknown[i] {
			t.Fatalf("path %d: the default budget left the question open", i)
		}
		if full[i] || p.Eq.IsTrue() {
			continue // a model may turn up in one step; no conjunct, no search
		}
		proven++
		if d, u := canDiverge(&sym.Solver{MaxSteps: 1}, p); d || !u {
			t.Errorf("path %d: one-step searches answered diverges=%v unknown=%v, want false/true", i, d, u)
		}
	}
	if proven == 0 {
		t.Fatal("rename x rename has no path proven order-independent; the test needs one")
	}
}
