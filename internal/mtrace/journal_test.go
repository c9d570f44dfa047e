package mtrace

import (
	"math/rand"
	"testing"
)

// TestSnapshotResetRestoresValues covers the journal basics: Store, Add,
// and Poke inside a region are all undone by Reset, repeatedly.
func TestSnapshotResetRestoresValues(t *testing.T) {
	m := NewMemory()
	a := m.NewCell("a", 10)
	b := m.NewCell("b", 20)
	c := m.NewCell("c", 30)

	m.Snapshot()
	for round := 0; round < 3; round++ {
		m.Start()
		a.Store(0, 111)
		b.Add(1, 5)
		m.Stop()
		c.Poke(333)
		if a.Peek() != 111 || b.Peek() != 25 || c.Peek() != 333 {
			t.Fatalf("round %d: writes not applied: %d %d %d", round, a.Peek(), b.Peek(), c.Peek())
		}
		m.Reset()
		if a.Peek() != 10 || b.Peek() != 20 || c.Peek() != 30 {
			t.Fatalf("round %d: Reset did not restore: %d %d %d", round, a.Peek(), b.Peek(), c.Peek())
		}
	}
	m.Pop()
	if len(m.marks) != 0 {
		t.Fatal("a snapshot region is still open after the final Pop")
	}
}

// TestNestedSnapshotRegions checks that Reset only rolls back the
// innermost region, and Pop merges the inner journal into the outer one so
// the outer Reset restores through both generations.
func TestNestedSnapshotRegions(t *testing.T) {
	m := NewMemory()
	x := m.NewCell("x", 1)

	m.Snapshot() // outer
	x.Poke(2)
	m.Snapshot() // inner
	x.Poke(3)
	m.Reset() // inner reset: back to 2
	if got := x.Peek(); got != 2 {
		t.Fatalf("inner Reset: x = %d, want 2", got)
	}
	x.Poke(4)
	m.Pop()   // merge inner region (x=2 recorded there) into outer
	x.Poke(5) // outer-region write after the merge
	m.Reset() // outer reset: through both generations back to 1
	if got := x.Peek(); got != 1 {
		t.Fatalf("outer Reset: x = %d, want 1", got)
	}
	m.Pop()
}

// TestOnResetHooks checks the primitive under Map and SetVar: records are
// reverted newest first, after every cell value is restored, and once.
func TestOnResetHooks(t *testing.T) {
	m := NewMemory()
	v := m.NewCell("v", 0)
	var trace []string

	m.Snapshot()
	v.Poke(9)
	m.onReset(undoFunc(func() {
		if v.Peek() != 0 {
			t.Errorf("hook ran before value restore: v = %d", v.Peek())
		}
		trace = append(trace, "first")
	}))
	m.onReset(undoFunc(func() { trace = append(trace, "second") }))
	m.Reset()
	if len(trace) != 2 || trace[0] != "second" || trace[1] != "first" {
		t.Fatalf("hook order = %v, want [second first]", trace)
	}

	// Hooks are consumed by Reset: a second Reset of the same region must
	// not rerun them.
	m.Reset()
	if len(trace) != 2 {
		t.Fatalf("hooks reran on second Reset: %v", trace)
	}
	m.Pop()
}

// mapState is every key of mp with its value and presence, read untraced.
func mapState(mp *Map[string, int]) map[string]int {
	out := map[string]int{}
	for k, e := range mp.entries {
		if e.present.Peek() != 0 {
			out[k] = e.v
		}
	}
	return out
}

// TestMapRollsBack covers the map: Reset returns a key to the state the
// region found it in, absence included, whatever Set and Delete did to it
// in between; outside a region nothing is recorded; and a setup's Poke
// makes a key absent again at Reset but keeps its value for Peek.
func TestMapRollsBack(t *testing.T) {
	m := NewMemory()
	mp := NewMap[string, int](m, "mp")
	mp.Set(0, "kept", 1)
	if len(m.hooks) != 0 || len(mp.log) != 0 {
		t.Fatalf("outside a region: %d hooks and %d records", len(m.hooks), len(mp.log))
	}

	m.Snapshot()
	mp.Poke("early", 5)
	m.Snapshot()
	for round := 0; round < 2; round++ {
		mp.Set(0, "new", 7)  // absent -> present
		mp.Set(1, "kept", 2) // overwrite
		mp.Set(0, "kept", 3) // second set of one key in one region
		mp.Set(1, "new", 8)
		mp.Delete(0, "early")
		if got := mapState(mp); len(got) != 2 || got["new"] != 8 || got["kept"] != 3 {
			t.Fatalf("round %d: sets not applied: %v", round, got)
		}
		m.Reset()
		if got := mapState(mp); len(got) != 2 || got["kept"] != 1 || got["early"] != 5 {
			t.Fatalf("round %d: Reset left %v, want kept=1 early=5 and no new", round, got)
		}
		if v := mp.Peek("new"); v != 0 {
			t.Fatalf("round %d: Reset left new holding %d, want the zero it held", round, v)
		}
	}
	m.Pop()
	m.Reset() // the setup's region: early is absent, but keeps its value
	if got := mapState(mp); len(got) != 1 || got["kept"] != 1 || mp.Peek("early") != 5 {
		t.Fatalf("after the setup's Reset: %v and early holding %d, want kept=1 and 5", got, mp.Peek("early"))
	}
	if len(m.hooks) != 0 || len(mp.log) != 0 {
		t.Fatalf("after the setup's Reset: %d hooks and %d records left", len(m.hooks), len(mp.log))
	}
	m.Pop()
}

// TestMapMissIsALoad pins what makes absence a read: Get of a key nobody
// set loads its presence cell, which is named after the key, so a Set of
// that key on another core conflicts with it; Delete is a store.
func TestMapMissIsALoad(t *testing.T) {
	m := NewMemory()
	mp := NewMap[int64, string](m, "proc0.fd")
	m.LogAccesses(true)
	m.Start()
	if v, ok := mp.Get(0, 1); ok || v != "" {
		t.Fatalf("Get of a key nobody set = %q, %t", v, ok)
	}
	mp.Set(1, 1, "f")
	m.Stop()
	want := []Access{{Cell: mp.entries[1].present, Core: 0}, {Cell: mp.entries[1].present, Core: 1, Write: true}}
	if got := m.Accesses(); len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("accesses = %v, want a load by core 0 and a store by core 1", got)
	}
	if c := m.Conflicts(); len(c) != 1 || c[0].CellName != "proc0.fd[1]" {
		t.Fatalf("conflicts = %v, want proc0.fd[1]", c)
	}
	m.Start()
	mp.Delete(0, 1)
	m.Stop()
	if got := m.Accesses(); len(got) != 1 || !got[0].Write {
		t.Fatalf("Delete made %v, want one store", got)
	}
	if mp.entries[1].present.Peek() != 0 {
		t.Fatal("Delete left the key present")
	}
}

// TestSetVarRollsBack covers the variable idiom the same way, on a struct
// as well as a scalar.
func TestSetVarRollsBack(t *testing.T) {
	type pair struct{ a, b int }
	m := NewMemory()
	n, p := 1, pair{1, 2}
	SetVar(m, &n, 2)
	if len(m.hooks) != 0 || n != 2 {
		t.Fatalf("outside a region: %d hooks recorded, n = %d", len(m.hooks), n)
	}

	m.Snapshot()
	SetVar(m, &n, 3)
	SetVar(m, &n, 4)
	SetVar(m, &p, pair{3, 4})
	m.Reset()
	if n != 2 || p != (pair{1, 2}) {
		t.Fatalf("Reset left n = %d, p = %v, want 2 and {1 2}", n, p)
	}
	// The records are consumed: a second Reset must not replay them over a
	// value set since.
	m.Pop()
	n = 9
	m.Snapshot()
	m.Reset()
	if n != 9 {
		t.Fatalf("an empty region's Reset moved n to %d", n)
	}
	m.Pop()
}

// TestSettersNestedRegions is TestNestedSnapshotRegions for the setters:
// an inner Reset rolls back the inner region only, and after Pop the outer
// Reset undoes both generations newest first, so the oldest value wins.
func TestSettersNestedRegions(t *testing.T) {
	m := NewMemory()
	mp := NewMap[string, int](m, "mp")
	x := 1

	m.Snapshot() // outer
	SetVar(m, &x, 2)
	mp.Set(0, "a", 10)
	m.Snapshot() // inner
	SetVar(m, &x, 3)
	mp.Set(0, "a", 11)
	mp.Set(0, "b", 20)
	m.Reset() // inner reset: back to the outer region's state
	if got := mapState(mp); x != 2 || len(got) != 1 || got["a"] != 10 {
		t.Fatalf("inner Reset: x = %d, map %v, want 2 and {a:10}", x, got)
	}
	SetVar(m, &x, 4)
	mp.Set(0, "a", 12)
	m.Pop() // merge the inner records into the outer region
	SetVar(m, &x, 5)
	mp.Delete(0, "a")
	m.Reset() // outer reset: through both generations
	if got := mapState(mp); x != 1 || len(got) != 0 {
		t.Fatalf("outer Reset: x = %d, map %v, want 1 and empty", x, got)
	}
	if v := mp.Peek("a"); v != 0 {
		t.Fatalf("outer Reset: a holds %d, want the zero it was born with", v)
	}
	m.Pop()
}

// TestWarmSetAllocatesNothing pins the point of the map's own log: once a
// key has its entry and the logs have grown, Set, Delete and Reset inside a
// region allocate nothing.
func TestWarmSetAllocatesNothing(t *testing.T) {
	m := NewMemory()
	mp := NewMap[int64, *Cell](m, "mp")
	c := m.NewCell("c", 0)
	m.Snapshot()
	run := func() {
		m.Start()
		mp.Set(0, 1, c)
		mp.Set(1, 2, c)
		mp.Delete(0, 1)
		m.Stop()
		m.Reset()
	}
	run()
	if n := testing.AllocsPerRun(100, run); n != 0 {
		t.Errorf("a warm region of Sets allocates %.0f times, want 0", n)
	}
	m.Pop()
}

// TestJournalDedupsPerRegion pins that a cell journals its pre-region
// value even when written many times, and journals again after Reset
// opens a new generation.
func TestJournalDedupsPerRegion(t *testing.T) {
	m := NewMemory()
	c := m.NewCell("c", 7)
	m.Snapshot()
	for i := 0; i < 100; i++ {
		c.Poke(int64(i))
	}
	if len(m.undo) != 1 {
		t.Fatalf("journal has %d entries for one cell, want 1", len(m.undo))
	}
	m.Reset()
	if c.Peek() != 7 {
		t.Fatalf("c = %d after Reset, want 7", c.Peek())
	}
	c.Poke(42)
	m.Reset()
	if c.Peek() != 7 {
		t.Fatalf("c = %d after second-generation Reset, want 7", c.Peek())
	}
	m.Pop()
}

// TestResetRandomized fuzzes the journal: random writes inside a region
// must always restore to the pre-region snapshot taken by Peek.
func TestResetRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := NewMemory()
	cells := make([]*Cell, 20)
	for i := range cells {
		cells[i] = m.NewCellf(int64(rng.Intn(100)), "cell%d", i)
	}
	m.Snapshot()
	for round := 0; round < 50; round++ {
		want := make([]int64, len(cells))
		for i, c := range cells {
			want[i] = c.Peek()
		}
		nwrites := rng.Intn(60)
		for i := 0; i < nwrites; i++ {
			c := cells[rng.Intn(len(cells))]
			switch rng.Intn(3) {
			case 0:
				c.Poke(int64(rng.Intn(1000)))
			case 1:
				m.Start()
				c.Store(rng.Intn(96), int64(rng.Intn(1000)))
				m.Stop()
			case 2:
				m.Start()
				c.Add(rng.Intn(96), int64(rng.Intn(10)))
				m.Stop()
			}
		}
		m.Reset()
		for i, c := range cells {
			if c.Peek() != want[i] {
				t.Fatalf("round %d: cell%d = %d, want %d", round, i, c.Peek(), want[i])
			}
		}
	}
	m.Pop()
}
