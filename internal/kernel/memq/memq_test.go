package memq_test

import (
	"testing"

	"repro/internal/kernel"
	"repro/internal/kernel/kerneltest"
	"repro/internal/kernel/memq"
)

func call(op string, args map[string]int64) kernel.Call {
	if args == nil {
		args = map[string]int64{}
	}
	return kernel.Call{Op: op, Args: args}
}

// TestOrderedFIFO pins send/recv semantics: FIFO order, sequence-number
// receipts, EAGAIN on empty.
func TestOrderedFIFO(t *testing.T) {
	k := memq.New()
	if r := k.Exec(0, call("recv", nil)); r.Code != -kernel.EAGAIN {
		t.Fatalf("recv on empty = %v, want EAGAIN", r)
	}
	for i, v := range []int64{7, 8, 9} {
		r := k.Exec(0, call("send", map[string]int64{"val": v}))
		if r.Code != int64(i) {
			t.Fatalf("send #%d receipt = %v, want %d", i, r, i)
		}
	}
	if r := k.Exec(0, call("status", nil)); r.Code != 3 {
		t.Fatalf("status = %v, want 3", r)
	}
	for i, v := range []int64{7, 8, 9} {
		r := k.Exec(1, call("recv", nil))
		if r.Code != 0 || r.V1 != int64(i) || r.Data != v {
			t.Fatalf("recv #%d = %v, want seq %d val %d", i, r, i, v)
		}
	}
	if r := k.Exec(1, call("recv", nil)); r.Code != -kernel.EAGAIN {
		t.Fatalf("recv after drain = %v, want EAGAIN", r)
	}
}

// TestPerCoreQueues pins the unordered variants' isolation: each core's
// send_any/recv_any work its own queue.
func TestPerCoreQueues(t *testing.T) {
	k := memq.New()
	k.Exec(0, call("send_any", map[string]int64{"val": 5}))
	if r := k.Exec(1, call("recv_any", nil)); r.Code != -kernel.EAGAIN {
		t.Fatalf("core 1 recv_any saw core 0's message: %v", r)
	}
	if r := k.Exec(0, call("recv_any", nil)); r.Code != 0 || r.Data != 5 {
		t.Fatalf("core 0 recv_any = %v, want val 5", r)
	}
	if r := k.Exec(0, call("status", nil)); r.Code != 0 {
		t.Fatalf("status counts unordered messages: %v", r)
	}
}

// TestApplySeedsBacklogs pins setup application for both queue kinds.
func TestApplySeedsBacklogs(t *testing.T) {
	k := memq.New()
	k.Apply(&memq.Setup{Queues: []memq.SetupQueue{
		{Core: -1, Items: []int64{4, 5}},
		{Core: 1, Items: []int64{6}},
	}})
	if r := k.Exec(0, call("recv", nil)); r.Data != 4 {
		t.Fatalf("seeded ordered head = %v, want 4", r)
	}
	if r := k.Exec(1, call("recv_any", nil)); r.Data != 6 {
		t.Fatalf("seeded core-1 queue = %v, want 6", r)
	}
}

// TestSendRecvNonEmptyConflictFree pins the implementation's scalability
// claim directly: on a non-empty queue, concurrent send and recv touch
// disjoint cells (split cursors, per-slot full flags), so the MTRACE
// check reports conflict-freedom — while on an empty queue the two
// operations genuinely collide (and genuinely don't commute).
func TestSendRecvNonEmptyConflictFree(t *testing.T) {
	tc := kernel.TestCase{
		ID:    "send_recv_nonempty",
		Setup: &memq.Setup{Queues: []memq.SetupQueue{{Core: -1, Items: []int64{1}}}},
		Calls: [2]kernel.Call{
			call("send", map[string]int64{"val": 2}),
			call("recv", nil),
		},
	}
	res, swapped := kerneltest.Check(func() kernel.Kernel { return memq.New() }, tc)
	if !res.ConflictFree {
		t.Errorf("non-empty send||recv conflicts: %v", res.Conflicts)
	}
	if res.Res != swapped {
		t.Errorf("non-empty send||recv results differ across orders: %v vs %v", res.Res, swapped)
	}

	empty := kernel.TestCase{
		ID:    "send_recv_empty",
		Setup: &memq.Setup{},
		Calls: tc.Calls,
	}
	res, _ = kerneltest.Check(func() kernel.Kernel { return memq.New() }, empty)
	if res.ConflictFree {
		t.Error("empty-queue send||recv reported conflict-free; the slot handoff must collide")
	}
}
