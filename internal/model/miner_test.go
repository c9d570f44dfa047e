package model

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/analyzer"
	"repro/internal/kernel"
	"repro/internal/spec"
	"repro/internal/sym"
	"repro/internal/testgen"
)

// TestReusedMinerIsInvisible holds the posix miner, which clears and reuses
// its maps and slices from model to model, to a fresh NewMiner per model:
// every model TESTGEN mines, of every commutative path of every posix pair
// on one Generator, must give the reused miner exactly the
// Setup a fresh one planned on the same path gives (reflect.DeepEqual, so
// nil is not empty). A value one model leaves in the miner's storage shows
// up in a later model's setup, where no test of the corpus need read it.
// TESTGEN's default per-path cap mines, under both FD rules, models that
// catch a file page left over; a cap of 32 (what -per-path 32 asks for)
// also mines a model that maps an anonymous page without probing it after
// one that probed it nonzero, which catches that value left over (a cap of
// 24 does not).
func TestReusedMinerIsInvisible(t *testing.T) {
	if testing.Short() {
		t.Skip("every posix pair in -short mode")
	}
	for _, u := range []struct {
		cfg spec.Config
		cap int
	}{
		{spec.Config{}, 0},
		{spec.Config{LowestFD: true}, 0},
		{spec.Config{}, 32},
	} {
		d := &freshMinerDiff{t: t, Spec: Spec}
		g := testgen.NewGenerator(d)
		ops := Spec.Ops()
		for i, a := range ops {
			for _, b := range ops[:i+1] {
				pr, err := analyzer.AnalyzePairCtx(context.Background(), Spec, b, a, analyzer.Options{Config: u.cfg})
				if err != nil {
					t.Fatal(err)
				}
				g.Generate(pr, testgen.Options{MaxTestsPerPath: u.cap})
			}
		}
		t.Logf("lowestfd=%t, cap %d: %d models mined, %d setups with a page or an anonymous page",
			u.cfg.LowestFD, u.cap, d.models, d.withPages)
		if d.models == 0 || d.withPages == 0 {
			t.Fatal("nothing to compare")
		}
	}
}

// freshMinerDiff is the posix spec with a miner that mines every model twice:
// on the reused miner and on a fresh one planned on the same path.
type freshMinerDiff struct {
	spec.Spec
	t                 *testing.T
	models, withPages int
}

func (d *freshMinerDiff) NewMiner() spec.SetupMiner {
	return &diffMiner{d: d, reused: d.Spec.NewMiner()}
}

type diffMiner struct {
	d      *freshMinerDiff
	reused spec.SetupMiner
	a, b   spec.State
}

func (m *diffMiner) Plan(a, b spec.State) { m.a, m.b = a, b; m.reused.Plan(a, b) }
func (m *diffMiner) Clear()               { m.a, m.b = nil, nil; m.reused.Clear() }

func (m *diffMiner) Setup(model sym.Model) kernel.Setup {
	got := m.reused.Setup(model)
	fresh := m.d.Spec.NewMiner()
	fresh.Plan(m.a, m.b)
	if want := fresh.Setup(model); !reflect.DeepEqual(got, want) {
		m.d.t.Fatalf("model %d: the reused miner mined\n%+v\na fresh one\n%+v", m.d.models, got, want)
	}
	m.d.models++
	for _, in := range got.Inodes {
		if len(in.Pages) > 0 {
			m.d.withPages++
			return got
		}
	}
	for _, v := range got.VMAs {
		if v.Anon && v.Val != 0 {
			m.d.withPages++
			return got
		}
	}
	return got
}
