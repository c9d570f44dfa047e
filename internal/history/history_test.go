package history

import (
	"testing"
)

func op(t int, class string, args []int64, ret ...int64) Op {
	return Op{Thread: t, Class: class, Args: args, Ret: ret}
}

func registerObservers() []History {
	// get() with every plausible return distinguishes register states.
	var ops []Op
	for v := int64(0); v <= 2; v++ {
		ops = append(ops, op(9, "get", nil, v))
	}
	return ObserverUniverse(ops, 1)
}

func TestRestrictAndReordering(t *testing.T) {
	h := History{
		op(0, "set", []int64{1}, 0),
		op(1, "set", []int64{2}, 0),
		op(0, "get", nil, 2),
	}
	r0 := h.Restrict(0)
	if len(r0) != 2 || r0[0].Class != "set" || r0[1].Class != "get" {
		t.Errorf("Restrict(0) = %v", r0)
	}
	g := History{h[1], h[0], h[2]}
	if !IsReordering(h, g) {
		t.Error("swapping independent-thread ops is a reordering")
	}
	bad := History{h[2], h[0], h[1]}
	if IsReordering(h, bad) {
		t.Error("violating thread 0's order is not a reordering")
	}
}

func TestReorderingsCount(t *testing.T) {
	// Two threads with 2 and 1 ops: C(3,1) = 3 interleavings.
	h := History{
		op(0, "set", []int64{1}, 0),
		op(0, "set", []int64{2}, 0),
		op(1, "set", []int64{3}, 0),
	}
	rs := Reorderings(h)
	if len(rs) != 3 {
		t.Fatalf("want 3 reorderings, got %d", len(rs))
	}
	for _, r := range rs {
		if !IsReordering(h, r) {
			t.Errorf("generated non-reordering %v", r)
		}
	}
}

func TestRefSpecMembership(t *testing.T) {
	s := RefSpec{New: NewRegister}
	ok := History{
		op(0, "set", []int64{1}, 0),
		op(1, "get", nil, 1),
	}
	if !s.OK(ok) {
		t.Error("valid history rejected")
	}
	bad := History{
		op(0, "set", []int64{1}, 0),
		op(1, "get", nil, 2),
	}
	if s.OK(bad) {
		t.Error("invalid response accepted")
	}
}

// §3.2's example: Y = [A=set(1), B=set(2), C=set(2)] with A and C on one
// thread and B on another. Per-thread order forces C=set(2) after A=set(1),
// so every reordering ends with a set(2) and Y SI-commutes; but its prefix
// [A, B] does not (order decides 1 vs 2), so Y does not SIM-commute. SI
// commutativity is non-monotonic.
func TestSetSetSIButNotSIM(t *testing.T) {
	s := RefSpec{New: NewRegister}
	zs := registerObservers()
	y := History{
		op(0, "set", []int64{1}, 0),
		op(1, "set", []int64{2}, 0),
		op(0, "set", []int64{2}, 0),
	}
	if !SICommutes(s, nil, y, zs) {
		t.Error("set(1);set(2);set(2) should SI-commute (all orders end at 2)")
	}
	prefix := y[:2]
	if SICommutes(s, nil, prefix, zs) {
		t.Error("set(1);set(2) must not SI-commute (order decides the value)")
	}
	if SIMCommutes(s, nil, y, zs) {
		t.Error("the region must not SIM-commute: its prefix is order-dependent")
	}
}

func TestSameValueSetsSIMCommute(t *testing.T) {
	s := RefSpec{New: NewRegister}
	zs := registerObservers()
	y := History{
		op(0, "set", []int64{2}, 0),
		op(1, "set", []int64{2}, 0),
	}
	if !SIMCommutes(s, nil, y, zs) {
		t.Error("identical sets should SIM-commute")
	}
}

func TestIncsSIMCommute(t *testing.T) {
	s := RefSpec{New: NewCounter}
	var reads []Op
	for v := int64(0); v <= 4; v++ {
		reads = append(reads, op(9, "read", nil, v))
	}
	zs := ObserverUniverse(reads, 1)
	y := History{
		op(0, "inc", nil, 0),
		op(1, "inc", nil, 0),
	}
	if !SIMCommutes(s, nil, y, zs) {
		t.Error("incs should SIM-commute")
	}
	y2 := History{
		op(0, "inc", nil, 0),
		op(1, "read", nil, 1),
	}
	if SIMCommutes(s, nil, y2, zs) {
		t.Error("inc and read must not commute (read sees the order)")
	}
}

// State dependence (§3.2's open example, transposed to put/max): put(1) and
// max() commute when a larger sample is already recorded, but not on an
// empty state.
func TestStateDependentCommutativity(t *testing.T) {
	s := RefSpec{New: NewPutMax}
	var maxes []Op
	for v := int64(0); v <= 3; v++ {
		maxes = append(maxes, op(9, "max", nil, v))
	}
	zs := ObserverUniverse(maxes, 1)

	x := History{op(2, "put", []int64{3}, 0)}
	y := History{
		op(0, "put", []int64{1}, 0),
		op(1, "max", nil, 3),
	}
	if !SIMCommutes(s, x, y, zs) {
		t.Error("put(1)/max should commute after put(3)")
	}

	yEmpty := History{
		op(0, "put", []int64{1}, 0),
		op(1, "max", nil, 1),
	}
	if SIMCommutes(s, nil, yEmpty, zs) {
		t.Error("put(1)/max=1 must not commute on the empty state")
	}
}

// §3.6's put/put region from H = [put(1), put(1), max=1]: the two puts
// SIM-commute, as does put||max after both puts.
func TestPutMaxRegions(t *testing.T) {
	s := RefSpec{New: NewPutMax}
	var maxes []Op
	for v := int64(0); v <= 2; v++ {
		maxes = append(maxes, op(9, "max", nil, v))
	}
	zs := ObserverUniverse(maxes, 1)
	puts := History{
		op(0, "put", []int64{1}, 0),
		op(1, "put", []int64{1}, 0),
	}
	if !SIMCommutes(s, nil, puts, zs) {
		t.Error("identical puts should SIM-commute")
	}
	tail := History{
		op(1, "put", []int64{1}, 0),
		op(2, "max", nil, 1),
	}
	x := History{op(0, "put", []int64{1}, 0)}
	if !SIMCommutes(s, x, tail, zs) {
		t.Error("put(1)||max=1 should commute after put(1)")
	}
}

func TestPrefixesIncludesEmptyAndFull(t *testing.T) {
	h := History{op(0, "set", []int64{1}, 0), op(1, "set", []int64{2}, 0)}
	ps := Prefixes(h)
	if len(ps) != 3 || len(ps[0]) != 0 || len(ps[2]) != 2 {
		t.Errorf("Prefixes = %v", ps)
	}
}

func TestObserverUniverseSize(t *testing.T) {
	ops := []Op{op(9, "get", nil, 0), op(9, "get", nil, 1)}
	// Lengths 0,1,2 over 2 candidates: 1 + 2 + 4 = 7.
	if got := len(ObserverUniverse(ops, 2)); got != 7 {
		t.Errorf("universe size = %d, want 7", got)
	}
}

func TestCompletedOps(t *testing.T) {
	ops := CompletedOps(3, "get", [][]int64{nil}, [][]int64{{0}, {1}})
	if len(ops) != 2 || ops[0].Thread != 3 {
		t.Errorf("CompletedOps = %v", ops)
	}
}
