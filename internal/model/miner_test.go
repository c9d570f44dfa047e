package model

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/analyzer"
	"repro/internal/kernel"
	"repro/internal/kernel/unix"
	"repro/internal/spec"
	"repro/internal/sym"
	"repro/internal/testgen"
)

// TestReusedMinerIsInvisible holds the posix miner, which clears and reuses
// its maps and slices from model to model, to a fresh NewMiner per model:
// every model TESTGEN mines, of every commutative path of every posix pair
// under both FD rules on one Generator, must give the reused miner exactly
// the Setup a fresh one mining from the same Probes gives
// (reflect.DeepEqual, so nil is not empty). Before each model the reused miner is poisoned
// (poison), so a value Setup fails to clear shows up in that model's setup
// instead of coinciding with what a fresh miner reads.
func TestReusedMinerIsInvisible(t *testing.T) {
	if testing.Short() {
		t.Skip("every posix pair in -short mode")
	}
	for _, cfg := range []spec.Config{{}, {LowestFD: true}} {
		d := &freshMinerDiff{t: t, Spec: Spec}
		g := testgen.NewGenerator(d)
		ops := Spec.Ops()
		for i, a := range ops {
			for _, b := range ops[:i+1] {
				pr, err := analyzer.AnalyzePairCtx(context.Background(), Spec, b, a, analyzer.Options{Config: cfg})
				if err != nil {
					t.Fatal(err)
				}
				g.Generate(pr, testgen.Options{})
			}
		}
		t.Logf("lowestfd=%t: %d models mined, %d setups with a page or an anonymous page", cfg.LowestFD, d.models, d.withPages)
		if d.models == 0 || d.withPages == 0 {
			t.Fatal("nothing to compare")
		}
	}
}

// poison fills everything Setup clears on entry with a sentinel, under
// every key the posix bounds let a setup read: inodes and their pages,
// pipes and their backlogs, and anonymous pages of procs 0–2. Only a link
// count's excess over the visible names counts, so the names' sentinel is
// negative. A pipe's cursors are Probes, which Setup empties before it
// returns, so they are not poisoned: a Setup that kept one would show it
// in the next model's setup.
func poison(mn *miner) {
	const bad = 77
	for k := int64(-1); k <= maxInum+1; k++ {
		mn.inodeLen[k], mn.inodeNlink[k], mn.visibleLinks[k] = bad, bad, -bad
		mn.pipesNeeded[k] = true
		for _, m := range []map[int64]map[int64]int64{mn.pages, mn.pipeVals} {
			if m[k] == nil {
				m[k] = map[int64]int64{}
			}
			for j := int64(-1); j <= maxLen; j++ {
				m[k][j] = bad
			}
		}
		for proc := int64(0); proc <= 2; proc++ {
			mn.anonVals[[2]int64{proc, k}] = bad
		}
	}
}

// freshMinerDiff is the posix spec with a miner that mines every model twice,
// from the Generator's Probes: on the reused miner and on a fresh one.
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
}

func (m *diffMiner) Setup(model sym.Model, p *spec.Probes) kernel.Setup {
	poison(m.reused.(*miner))
	got := m.reused.Setup(model, p)
	if want := m.d.Spec.NewMiner().Setup(model, p); !reflect.DeepEqual(got, want) {
		m.d.t.Fatalf("model %d: the reused miner mined\n%+v\na fresh one\n%+v", m.d.models, got, want)
	}
	m.d.models++
	s := got.(*unix.Setup)
	for _, in := range s.Inodes {
		if len(in.Pages) > 0 {
			m.d.withPages++
			return got
		}
	}
	for _, v := range s.VMAs {
		if v.Anon && v.Val != 0 {
			m.d.withPages++
			return got
		}
	}
	return got
}
