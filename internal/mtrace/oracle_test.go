package mtrace_test

// Differential oracle for the online epoch/bitset conflict detector: the
// legacy post-hoc scan of the access log (kerneltest.CheckOnline runs it)
// is run on randomized multi-core access sequences and must agree with the
// online verdict and the lazily materialized []Conflict report.

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/kernel/kerneltest"
	"repro/internal/mtrace"
)

func TestOnlineMatchesLegacyOracle(t *testing.T) {
	cfg := &quick.Config{MaxCount: 300}
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := mtrace.NewMemory()
		m.LogAccesses(true)
		cells := make([]*mtrace.Cell, 1+rng.Intn(8))
		for i := range cells {
			cells[i] = m.NewCellf(0, "cell%d", i)
		}
		// Core numbers deliberately straddle the 64-bit word boundary of
		// the coreset so both mask words are exercised.
		corePool := []int{0, 1, 2, 63, 64, 65, 95, 127}
		m.Start()
		for n := rng.Intn(40); n > 0; n-- {
			cell := cells[rng.Intn(len(cells))]
			core := corePool[rng.Intn(len(corePool))]
			if rng.Intn(2) == 0 {
				cell.Store(core, 1)
			} else {
				cell.Load(core)
			}
		}
		m.Stop()
		if diff := kerneltest.CheckOnline(m); diff != "" {
			t.Logf("seed %d: %s", seed, diff)
			return false
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestOnlineMatchesLegacyAcrossEpochs reruns several traced regions on the
// same memory: the epoch bump must fully isolate regions (stale bitset
// state from one region must never leak a conflict into the next).
func TestOnlineMatchesLegacyAcrossEpochs(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	m := mtrace.NewMemory()
	m.LogAccesses(true)
	cells := make([]*mtrace.Cell, 6)
	for i := range cells {
		cells[i] = m.NewCellf(0, "cell%d", i)
	}
	for round := 0; round < 200; round++ {
		m.Start()
		nsteps := rng.Intn(25)
		for i := 0; i < nsteps; i++ {
			c := cells[rng.Intn(len(cells))]
			core := rng.Intn(96)
			switch rng.Intn(3) {
			case 0:
				c.Load(core)
			case 1:
				c.Store(core, int64(i))
			case 2:
				c.Add(core, 1)
			}
		}
		m.Stop()
		if diff := kerneltest.CheckOnline(m); diff != "" {
			t.Fatalf("round %d: %s", round, diff)
		}
	}
}

// TestAccessesReturnsCopy is the regression test for the aliasing bug: the
// slice returned by Accesses must survive a subsequent Start truncating
// and overwriting the internal buffer.
func TestAccessesReturnsCopy(t *testing.T) {
	m := mtrace.NewMemory()
	m.LogAccesses(true)
	a := m.NewCell("a", 0)
	b := m.NewCell("b", 0)

	m.Start()
	a.Store(0, 1)
	a.Load(1)
	m.Stop()
	log := m.Accesses()
	if len(log) != 2 || log[0].Cell != a || !log[0].Write || log[1].Cell != a || log[1].Write {
		t.Fatalf("unexpected first log: %+v", log)
	}

	// A second traced region reuses the internal buffer in place; the
	// previously returned slice must not change.
	m.Start()
	b.Load(5)
	b.Store(6, 2)
	m.Stop()
	if log[0].Cell != a || log[0].Core != 0 || !log[0].Write {
		t.Fatalf("Accesses result aliased internal buffer: %+v", log[0])
	}
	if log[1].Cell != a || log[1].Core != 1 || log[1].Write {
		t.Fatalf("Accesses result aliased internal buffer: %+v", log[1])
	}

	log2 := m.Accesses()
	if len(log2) != 2 || log2[0].Cell != b || log2[1].Cell != b {
		t.Fatalf("unexpected second log: %+v", log2)
	}
}

// TestAccessLogOptIn pins that the detailed log is off by default (the
// CHECK hot path must not pay for it) and that conflicts are still
// detected without it.
func TestAccessLogOptIn(t *testing.T) {
	m := mtrace.NewMemory()
	c := m.NewCell("c", 0)
	m.Start()
	c.Store(0, 1)
	c.Load(1)
	m.Stop()
	if got := m.Accesses(); got != nil {
		t.Fatalf("access log recorded without LogAccesses(true): %+v", got)
	}
	if m.ConflictFree() {
		t.Fatal("conflict missed with access log disabled")
	}
	want := []mtrace.Conflict{{CellName: "c", Writers: []int{0}, Readers: []int{1}}}
	if got := m.Conflicts(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Conflicts() = %v, want %v", got, want)
	}
}
