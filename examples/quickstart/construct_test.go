package main

import (
	"testing"
)

// runMachine feeds h's invocations into m and checks responses match.
func runMachine(t *testing.T, m Machine, h History) {
	t.Helper()
	for i, o := range h {
		got := m.Invoke(o.Thread, o.Class, o.Args)
		if len(got) != len(o.Ret) {
			t.Fatalf("step %d (%v): ret %v, want %v", i, o, got, o.Ret)
		}
		for j := range got {
			if got[j] != o.Ret[j] {
				t.Fatalf("step %d (%v): ret %v, want %v", i, o, got, o.Ret)
			}
		}
	}
}

var putMaxX = History{op(0, "put", []int64{2}, 0)}
var putMaxY = History{
	op(0, "put", []int64{1}, 0),
	op(1, "put", []int64{1}, 0),
	op(2, "max", nil, 2),
}

// Figure 1's mns replays H correctly but conflicts everywhere.
func TestNonScalableReplaysAndConflicts(t *testing.T) {
	h := putMaxX.Concat(putMaxY)
	m := NewNonScalable(h, NewPutMax)
	runMachine(t, m, putMaxX)
	m.Memory().Start()
	runMachine(t, m, putMaxY)
	m.Memory().Stop()
	cs := m.Memory().Conflicts()
	if len(cs) == 0 {
		t.Error("mns must conflict on its shared history component")
	}
}

// mns emulates the reference once input diverges from H.
func TestNonScalableDivergenceEmulates(t *testing.T) {
	h := putMaxX.Concat(putMaxY)
	m := NewNonScalable(h, NewPutMax)
	runMachine(t, m, putMaxX) // replay the X prefix
	// Diverge: a put(9) that is not in H.
	if got := m.Invoke(1, "put", []int64{9}); got[0] != 0 {
		t.Fatalf("divergent put ret = %v", got)
	}
	if got := m.Invoke(2, "max", nil); got[0] != 9 {
		t.Errorf("max after divergence = %v, want 9", got)
	}
}

// Figure 2's m: correct responses along H, and the commutative region's
// steps are conflict-free — the constructive heart of the rule's proof.
func TestConstructedScalableImplConflictFree(t *testing.T) {
	m := NewScalable(putMaxX, putMaxY, NewPutMax)
	runMachine(t, m, putMaxX)
	m.Memory().Start()
	runMachine(t, m, putMaxY)
	m.Memory().Stop()
	cs := m.Memory().Conflicts()
	if len(cs) != 0 {
		t.Errorf("commutative region must be conflict-free, got conflicts on %v", cs)
	}
}

// The construction is generic in the reference machine: two increments
// SIM-commute (TestIncsSIMCommute), so Figure 2's m over the counter answers
// them conflict-free as well.
func TestConstructedScalableImplCounter(t *testing.T) {
	y := History{op(0, "inc", nil, 0), op(1, "inc", nil, 0)}
	m := NewScalable(nil, y, NewCounter)
	m.Memory().Start()
	runMachine(t, m, y)
	m.Memory().Stop()
	if cs := m.Memory().Conflicts(); len(cs) != 0 {
		t.Errorf("commutative region conflicts: %v", cs)
	}
}

// The commutative region may arrive in any reordering; m still answers
// correctly and conflict-free (per-thread queues are order-independent).
func TestConstructedScalableImplReorderedRegion(t *testing.T) {
	for _, y2 := range Reorderings(putMaxY) {
		m := NewScalable(putMaxX, putMaxY, NewPutMax)
		runMachine(t, m, putMaxX)
		m.Memory().Start()
		runMachine(t, m, y2)
		m.Memory().Stop()
		cs := m.Memory().Conflicts()
		if len(cs) != 0 {
			t.Errorf("reordering %v: conflicts on %v", y2, cs)
		}
	}
}

// Divergence inside the commutative region: m reconstructs H′ from
// per-thread queues (in some order — valid by SIM commutativity) and
// emulates the reference; responses stay spec-valid.
func TestConstructedScalableImplDivergesInRegion(t *testing.T) {
	m := NewScalable(putMaxX, putMaxY, NewPutMax)
	runMachine(t, m, putMaxX)
	// Consume part of the region...
	if got := m.Invoke(0, "put", []int64{1}); got[0] != 0 {
		t.Fatalf("put ret %v", got)
	}
	// ...then diverge with an action outside Y.
	if got := m.Invoke(1, "put", []int64{7}); got[0] != 0 {
		t.Fatalf("divergent put ret %v", got)
	}
	// The reference must now reflect put(2), put(1), put(7).
	if got := m.Invoke(2, "max", nil); got[0] != 7 {
		t.Errorf("max after divergence = %v, want 7", got)
	}
}

// §3.6's trade-off: per-thread-maxima and shared-max implementations each
// scale for a different subregion of H, but neither (nor any single
// implementation) is conflict-free across all of H. We demonstrate the two
// strategies with the Figure 2 construction applied to the two choices of
// commutative region.
func TestPutMaxAlternativeRegions(t *testing.T) {
	h := History{
		op(0, "put", []int64{1}, 0),
		op(1, "put", []int64{1}, 0),
		op(2, "max", nil, 1),
	}
	// Strategy 1: scale the two puts (per-thread maxima); max reconciles.
	m1 := NewScalable(nil, h[:2], NewPutMax)
	m1.Memory().Start()
	runMachine(t, m1, h[:2])
	m1.Memory().Stop()
	if cs := m1.Memory().Conflicts(); len(cs) != 0 {
		t.Errorf("puts region should be conflict-free, got %v", cs)
	}
	// Strategy 2: scale put||max after the first put (global max already 1).
	m2 := NewScalable(h[:1], h[1:], NewPutMax)
	runMachine(t, m2, h[:1])
	m2.Memory().Start()
	runMachine(t, m2, h[1:])
	m2.Memory().Stop()
	if cs := m2.Memory().Conflicts(); len(cs) != 0 {
		t.Errorf("put||max region should be conflict-free, got %v", cs)
	}
	// The full H is not SIM-commutative, so no region covers all of it:
	// put(1) before vs after max changes max's answer.
	s := RefSpec{New: NewPutMax}
	var maxes []Op
	for v := int64(0); v <= 2; v++ {
		maxes = append(maxes, op(9, "max", nil, v))
	}
	zs := ObserverUniverse(maxes, 1)
	if SIMCommutes(s, nil, h, zs) {
		t.Error("all of H must not SIM-commute")
	}
}
