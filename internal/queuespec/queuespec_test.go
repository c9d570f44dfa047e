package queuespec

import (
	"context"
	"testing"

	"repro/internal/analyzer"
	"repro/internal/kernel"
	"repro/internal/kernel/kerneltest"
	"repro/internal/spec"
	"repro/internal/sweep"
	"repro/internal/testgen"
)

func analyze(t *testing.T, a, b string) analyzer.PairResult {
	t.Helper()
	opA, err := spec.OpByName(Spec, a)
	if err != nil {
		t.Fatal(err)
	}
	opB, err := spec.OpByName(Spec, b)
	if err != nil {
		t.Fatal(err)
	}
	r, err := analyzer.AnalyzePairCtx(context.Background(), Spec, opA, opB, analyzer.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// generate is the pair's test set; these pairs fit the default budget, so
// the truncation count is not of interest.
func generate(r analyzer.PairResult) []kernel.TestCase {
	tests, _ := testgen.GenerateChecked(Spec, r, testgen.Options{})
	return tests
}

func counts(r analyzer.PairResult) (commute, diverge int) {
	diverges, _ := analyzer.CanDiverge(context.Background(), r)
	for i, p := range r.Paths {
		if p.Commutes {
			commute++
		}
		if diverges[i] {
			diverge++
		}
	}
	return
}

// TestOrderedPairsDoNotCommute pins the §4 argument symbolically: the
// order-preserving interface's mutating pairs admit no commutative
// execution at all — the sequence-number receipt makes the order
// observable — while reads of a moving count (status vs send/recv) are
// likewise order-dependent.
func TestOrderedPairsDoNotCommute(t *testing.T) {
	for _, pair := range [][2]string{
		{"send", "send"},
		{"status", "send"},
	} {
		r := analyze(t, pair[0], pair[1])
		nc, nd := counts(r)
		if r.Unknown() > 0 {
			t.Fatalf("%s x %s: solver budget hit", pair[0], pair[1])
		}
		if nc != 0 {
			t.Errorf("%s x %s: %d commutative paths, want 0", pair[0], pair[1], nc)
		}
		if nd == 0 {
			t.Errorf("%s x %s: no order-dependent path found", pair[0], pair[1])
		}
	}
}

// TestSendRecvCommuteOnlyNonEmpty pins the conditional case: send and
// recv touch opposite ends of the FIFO, so they commute exactly when the
// queue is non-empty (on the empty queue, recv's verdict depends on
// whether send went first).
func TestSendRecvCommuteOnlyNonEmpty(t *testing.T) {
	r := analyze(t, "send", "recv")
	nc, nd := counts(r)
	if nc == 0 {
		t.Error("send x recv: no commutative path (non-empty queue should commute)")
	}
	if nd == 0 {
		t.Error("send x recv: no divergent path (empty queue should order-distinguish)")
	}

	// status x recv is conditional the other way around: it commutes
	// exactly when recv fails (empty queue, no state change) and
	// diverges when recv succeeds and moves the count.
	r = analyze(t, "status", "recv")
	nc, nd = counts(r)
	if nc == 0 {
		t.Error("status x recv: no commutative path (failing recv should commute)")
	}
	if nd == 0 {
		t.Error("status x recv: no divergent path (successful recv moves the count)")
	}
}

// TestUnorderedPairsCommute pins the redesigned interface: with delivery
// order unspecified (nondeterministic per-core queues, no receipts), the
// unordered operations always admit a commutative execution.
func TestUnorderedPairsCommute(t *testing.T) {
	for _, pair := range [][2]string{
		{"send_any", "send_any"},
		{"send_any", "recv_any"},
		{"recv_any", "recv_any"},
		{"status", "send_any"},
		{"status", "recv_any"},
	} {
		r := analyze(t, pair[0], pair[1])
		nc, _ := counts(r)
		if nc == 0 {
			t.Errorf("%s x %s: no commutative path", pair[0], pair[1])
		}
	}
}

// TestMemqConflictFree is the end-to-end acceptance: every test TESTGEN
// derives from the queue spec's commutative paths runs conflict-free on
// the memq reference implementation under the standard MTRACE check —
// the §4 scalable design (split cursors, per-slot full flags, per-core
// queues) realizes the commutativity the spec promises.
func TestMemqConflictFree(t *testing.T) {
	kernels, impl := Spec.Impls(), ""
	if len(kernels) != 1 || kernels[0].Name != "memq" {
		t.Fatalf("queue impls = %+v, want memq", kernels)
	}
	impl = kernels[0].Name

	res, err := sweep.RunContext(context.Background(), sweep.Config{
		Spec:    Spec,
		Ops:     Spec.Ops(),
		Kernels: []sweep.KernelSpec{{Name: impl, New: kernels[0].New}},
	})
	if err != nil {
		t.Fatal(err)
	}
	total, conflicts := 0, 0
	for _, p := range res.Pairs {
		if p.Unknown > 0 {
			t.Errorf("%s: solver budget hit", p.Pair())
		}
		for _, c := range p.Cells {
			total += c.Total
			conflicts += c.Conflicts
			if c.Conflicts > 0 {
				t.Errorf("%s on %s: %d/%d tests conflicted", p.Pair(), c.Kernel, c.Conflicts, c.Total)
			}
		}
	}
	if total == 0 {
		t.Fatal("queue sweep generated no tests")
	}
	t.Logf("queue spec: %d tests, %d conflicts", total, conflicts)

	// Spot-check that the non-commutative pairs really generate nothing:
	// their matrix cells must read "-", not "conflict-free by vacuity
	// plus luck".
	for _, p := range res.Pairs {
		if p.OpA == "send" && p.OpB == "send" && p.Tests != 0 {
			t.Errorf("send/send generated %d tests, want 0", p.Tests)
		}
	}
}

// TestGenerateQueueTests pins the concretizer: a send/recv test on a
// non-empty queue must seed the ordered backlog the witness probed.
func TestGenerateQueueTests(t *testing.T) {
	r := analyze(t, "send", "recv")
	tests := generate(r)
	if len(tests) == 0 {
		t.Fatal("no tests for send x recv")
	}
	seeded := false
	for _, tc := range tests {
		for _, q := range tc.Setup.Queues {
			if q.Core == -1 && len(q.Items) > 0 {
				seeded = true
			}
		}
		if tc.Calls[0].Op != "send" || tc.Calls[1].Op != "recv" {
			t.Errorf("%s: calls %v", tc.ID, tc.Calls)
		}
	}
	if !seeded {
		t.Error("no generated test seeds a non-empty ordered queue")
	}
	for _, tc := range tests {
		res := kerneltest.Check(Spec.Impls()[0].New, tc)
		if !res.ConflictFree {
			names := make([]string, len(res.Conflicts))
			for i, c := range res.Conflicts {
				names[i] = c.CellName
			}
			t.Errorf("%s: conflicts on %v", tc.ID, names)
		}
	}
}
