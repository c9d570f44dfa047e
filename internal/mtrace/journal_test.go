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

// TestOnResetHooks checks the primitive under SetKey and SetVar: hook
// ordering (newest first, after value restore) and region scoping.
func TestOnResetHooks(t *testing.T) {
	m := NewMemory()
	v := m.NewCell("v", 0)
	var trace []string

	m.onReset(func() { t.Fatal("hook registered outside any region ran") })

	m.Snapshot()
	v.Poke(9)
	m.onReset(func() {
		if v.Peek() != 0 {
			t.Errorf("hook ran before value restore: v = %d", v.Peek())
		}
		trace = append(trace, "first")
	})
	m.onReset(func() { trace = append(trace, "second") })
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

// TestSetKeyRollsBack covers the map idiom: Reset returns a key to the
// state the region found it in, absence included, whatever happened to it
// in between, and outside a region nothing is recorded.
func TestSetKeyRollsBack(t *testing.T) {
	m := NewMemory()
	mp := map[string]int{"kept": 1}
	SetKey(m, mp, "early", 5)
	if len(m.hooks) != 0 || mp["early"] != 5 {
		t.Fatalf("outside a region: %d hooks recorded, map %v", len(m.hooks), mp)
	}

	m.Snapshot()
	for round := 0; round < 2; round++ {
		SetKey(m, mp, "new", 7)  // absent -> present
		SetKey(m, mp, "kept", 2) // overwrite
		SetKey(m, mp, "kept", 3) // second set of one key in one region
		SetKey(m, mp, "new", 8)
		if mp["new"] != 8 || mp["kept"] != 3 {
			t.Fatalf("round %d: sets not applied: %v", round, mp)
		}
		m.Reset()
		if _, ok := mp["new"]; ok || mp["kept"] != 1 || mp["early"] != 5 || len(mp) != 2 {
			t.Fatalf("round %d: Reset left %v, want kept=1 early=5 and no new", round, mp)
		}
	}
	m.Pop()
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
	mp := map[int]int{}
	x := 1

	m.Snapshot() // outer
	SetVar(m, &x, 2)
	SetKey(m, mp, 0, 10)
	m.Snapshot() // inner
	SetVar(m, &x, 3)
	SetKey(m, mp, 0, 11)
	SetKey(m, mp, 1, 20)
	m.Reset() // inner reset: back to the outer region's state
	if _, ok := mp[1]; ok || x != 2 || mp[0] != 10 {
		t.Fatalf("inner Reset: x = %d, map %v, want 2 and {0:10}", x, mp)
	}
	SetVar(m, &x, 4)
	SetKey(m, mp, 0, 12)
	m.Pop() // merge the inner records into the outer region
	SetVar(m, &x, 5)
	m.Reset() // outer reset: through both generations
	if x != 1 || len(mp) != 0 {
		t.Fatalf("outer Reset: x = %d, map %v, want 1 and empty", x, mp)
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
