package spec_test

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/analyzer"
	"repro/internal/spec"
	"repro/internal/sym"
	"repro/internal/symx"
)

// mapProbe is a probe as CollectProbes returned it before probes were
// planned: fresh maps per probe, integers and booleans apart.
type mapProbe struct {
	Key    []int64
	Fields map[string]int64
	Bools  map[string]bool
}

// collectProbes is the reference ProbePlan.Eval must agree with: the
// per-model walk it replaced, filtering and deduplicating as it goes. Both
// sides read the model through sym's one evaluator, so what this pins is the
// walk — which entries are probes, that a location's first entry decides it,
// the order — not the evaluation (internal/sym's fuzz targets hold that to
// a reference of its own).
func collectProbes(m sym.Model, dicts ...*symx.Dict) []mapProbe {
	var out []mapProbe
	seen := map[string]bool{}
	for _, d := range dicts {
		for _, e := range d.Entries() {
			if !e.InitialProbe {
				continue
			}
			key := make([]int64, len(e.Key))
			ks := ""
			for i, ke := range e.Key {
				key[i] = m.Int(ke, 0)
				ks += fmt.Sprintf(",%d", key[i])
			}
			if seen[ks] {
				continue
			}
			seen[ks] = true
			p := mapProbe{Key: key, Fields: map[string]int64{}, Bools: map[string]bool{}}
			present := true
			if e.InitPresentVar != nil {
				present = m.Bool(e.InitPresentVar, false)
			}
			if present && e.InitVal != nil {
				for _, name := range e.InitVal.FieldOrder {
					if fe := e.InitVal.Get(name); fe.Sort.Kind == sym.KindBool {
						p.Bools[name] = m.Bool(fe, false)
					} else {
						p.Fields[name] = m.Int(fe, 0)
					}
				}
			}
			if present {
				out = append(out, p)
			}
		}
	}
	return out
}

// TestProbePlanMatchesPerModelWalk evaluates one plan per dictionary per
// path under the models TESTGEN would see (and under the empty model,
// where every expression is undetermined), for pairs of all four specs
// whose paths probe several dictionaries, alias keys and leave locations
// absent. Each Eval must list the probes the per-model walk lists, in its
// order, with its keys and field values — from storage the next Eval
// reuses, in plans re-planned in place from path to path as a miner's are.
func TestProbePlanMatchesPerModelWalk(t *testing.T) {
	pairs := []struct{ spec, a, b string }{
		{"posix", "rename", "rename"},
		{"posix", "link", "unlink"},
		{"posix", "pipe", "read"},
		{"posix", "write", "pwrite"},
		{"posix", "mmap", "memwrite"},
		{"vm", "mmap", "munmap"},
		{"kv", "put", "scan"},
		{"queue", "send", "recv"},
	}
	for _, pair := range pairs {
		sp, err := spec.Lookup(pair.spec)
		if err != nil {
			t.Fatal(err)
		}
		opA, errA := spec.OpByName(sp, pair.a)
		opB, errB := spec.OpByName(sp, pair.b)
		if errA != nil || errB != nil {
			t.Fatal(errA, errB)
		}
		pr, err := analyzer.AnalyzePairCtx(context.Background(), sp, opA, opB, analyzer.Options{})
		if err != nil {
			t.Fatal(err)
		}
		probes, evals := 0, 0
		var plans []spec.ProbePlan // re-planned in place at every path
		for pi, path := range pr.Paths {
			if !path.Commutes {
				continue
			}
			da, db := path.StateA.Dicts(), path.StateB.Dicts()
			if len(plans) != len(da) {
				plans = make([]spec.ProbePlan, len(da))
			}
			for i := range da {
				plans[i].Plan(da[i], db[i])
			}
			check := func(m sym.Model) {
				for i := range plans {
					want := collectProbes(m, da[i], db[i])
					got := plans[i].Eval(m)
					evals++
					probes += len(got)
					if len(got) != len(want) {
						t.Fatalf("%s/%s path %d dict %s: %d probes, the walk finds %d", pair.a, pair.b, pi, da[i].Name, len(got), len(want))
					}
					for j, w := range want {
						g := got[j]
						if !reflect.DeepEqual(g.Key, w.Key) {
							t.Fatalf("%s/%s path %d dict %s probe %d: key %v, want %v", pair.a, pair.b, pi, da[i].Name, j, g.Key, w.Key)
						}
						for name, v := range w.Fields {
							if g.Field(name) != v {
								t.Errorf("%s/%s path %d dict %s probe %d: %s = %d, want %d", pair.a, pair.b, pi, da[i].Name, j, name, g.Field(name), v)
							}
						}
						for name, v := range w.Bools {
							if g.Bool(name) != v {
								t.Errorf("%s/%s path %d dict %s probe %d: %s = %v, want %v", pair.a, pair.b, pi, da[i].Name, j, name, g.Bool(name), v)
							}
						}
						if g.Field("no such field") != 0 || g.Bool("no such field") {
							t.Errorf("a field the probed value lacks must read as zero")
						}
					}
				}
			}
			check(sym.Model{})
			// Models no path condition allows: every key undetermined, so
			// all of a dictionary's locations collide, under alternating
			// membership — the first entry of a location decides it, also
			// when it is absent and a later one present. The solver builds
			// them, from one literal per presence variable.
			for parity := 0; parity < 2; parity++ {
				present := map[*sym.Expr]bool{}
				for i := range da {
					for j, e := range slices.Concat(da[i].Entries(), db[i].Entries()) {
						if e.InitPresentVar != nil {
							present[e.InitPresentVar] = j%2 == parity
						}
					}
				}
				var lits []*sym.Expr
				for v, is := range present {
					lits = append(lits, sym.Eq(v, sym.Bool(is)))
				}
				found := false
				(&sym.Solver{}).EnumerateConjs(lits, func(m sym.Model) bool {
					check(m)
					found = true
					return false
				})
				if !found {
					t.Fatal("no model of a conjunction of literals over distinct variables")
				}
			}
			n := 0
			(&sym.Solver{}).EnumerateConjs(sym.Conjuncts(path.CommuteCond()), func(m sym.Model) bool {
				check(m)
				n++
				return n < 16
			})
		}
		if probes == 0 {
			t.Errorf("%s %s/%s: no probe in %d evaluations; the pair tests nothing", pair.spec, pair.a, pair.b, evals)
		}
	}
}
