package symx

import (
	"context"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/sym"
)

// exploreUnshared is RunCtx on solver with nothing shared between replays:
// each one starts from a new Context, so it makes its own variable table and
// probe table. It returns the paths with each one's decisions, and the
// variables of every replay, aborted ones included.
func exploreUnshared(fn func(*Context) any, maxPaths int, solver *sym.Solver) ([]Path, [][]bool, map[string]VarKind) {
	kinds := map[string]VarKind{}
	var (
		paths  []Path
		traces [][]bool
	)
	queue := [][]bool{nil}
	for len(queue) > 0 && len(paths) < maxPaths {
		prefix := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		c := newContext(prefix, solver)
		res, aborted := runOne(c, fn)
		queue = append(queue, c.pending...)
		maps.Copy(kinds, c.x.varKinds)
		if !aborted {
			paths = append(paths, Path{PC: c.pc(), Result: res, VarKinds: c.x.varKinds})
			traces = append(traces, c.traceSoFar())
		}
	}
	return paths, traces, kinds
}

// TestExplorationTablesAreInvisible: an exploration's variable and probe
// tables change nothing a path ends with. Random histories (dictHistory)
// are explored by RunCtx, and again with nothing shared between replays;
// path for path, the decision trace, the PC node and the
// DictsEquivalent conjunct list must be the same, and the variables the
// two made the same. Both explorations run on one solver, and so build in
// one scope: the same node is the same pointer. Half the histories only write, so the invariant the
// "qs" kind's MakeVal Assumes reaches the path condition through
// DictsEquivalent's defaults alone; a branch the history never reads,
// before it or between it and the equivalences, makes the later paths
// meet the earlier ones' probes again, and a replayed probe that did not
// Assume what it Assumed the first time would leave their path conditions
// short.
func TestExplorationTablesAreInvisible(t *testing.T) {
	calls, paths, counting := 0, 0, false
	for seed := int64(0); seed < 240; seed++ {
		writeOnly, at := seed%2 == 0, seed/2%3
		fn := func(c *Context) any {
			z := c.Var("qz", sym.BoolSort, KindArg)
			if at == 1 {
				c.Branch(z)
			}
			ds := dictHistory(c, rand.New(rand.NewSource(seed)), writeOnly)
			if at == 2 {
				c.Branch(z)
			}
			if counting {
				calls += 2
			}
			return DictsEquivalent(DictsEquivalent(nil, c, ds[0], ds[1]), c, ds[1], ds[0])
		}
		var traces [][]bool
		solver := &sym.Solver{}
		counting = true
		shared, _, err := RunCtx(context.Background(), func(c *Context) any {
			res := fn(c) // a replay that aborts records nothing
			traces = append(traces, slices.Clone(c.traceSoFar()))
			return res
		}, Options{MaxPaths: 64, Solver: solver})
		counting = false
		if err != nil {
			t.Fatal(err)
		}
		alone, aloneTraces, kinds := exploreUnshared(fn, 64, solver)
		if len(shared) != len(alone) {
			t.Fatalf("seed %d: %d paths with the tables, %d without", seed, len(shared), len(alone))
		}
		for i := range shared {
			p, q := shared[i], alone[i]
			if !slices.Equal(traces[i], aloneTraces[i]) {
				t.Fatalf("seed %d path %d: decisions %v with the tables, %v without", seed, i, traces[i], aloneTraces[i])
			}
			if p.PC != q.PC {
				t.Fatalf("seed %d path %d: path condition\n with the tables %v\n without        %v", seed, i, p.PC, q.PC)
			}
			if got, want := p.Result.([]*sym.Expr), q.Result.([]*sym.Expr); !slices.Equal(got, want) {
				t.Fatalf("seed %d path %d: DictsEquivalent\n with the tables %v\n without        %v", seed, i, got, want)
			}
			for name := range q.VarKinds {
				if _, ok := p.VarKinds[name]; !ok {
					t.Fatalf("seed %d path %d: variable %s missing with the tables", seed, i, name)
				}
			}
		}
		if len(shared) > 0 && !slices.Equal(slices.Sorted(maps.Keys(shared[0].VarKinds)), slices.Sorted(maps.Keys(kinds))) {
			t.Fatalf("seed %d: variables %v with the tables, %v without", seed,
				slices.Sorted(maps.Keys(shared[0].VarKinds)), slices.Sorted(maps.Keys(kinds)))
		}
		paths += len(shared)
	}
	t.Logf("%d paths; %d DictsEquivalent calls with the tables", paths, calls)
}

// TestMakeValMayNotBranch: MakeVal is a function of its tag, so a Branch
// inside one panics, naming the dictionary and the tag.
func TestMakeValMayNotBranch(t *testing.T) {
	defer func() {
		msg := fmt.Sprint(recover())
		if !strings.Contains(msg, "MakeVal of brancher branched at brancher[qa]") {
			t.Errorf("panic = %q, want one naming the dictionary and the tag", msg)
		}
	}()
	explore(func(c *Context) any {
		d := NewDict(c, "brancher", func(c *Context, tag string) *Struct {
			v := c.Var(tag+".v", sym.IntSort, KindState)
			c.Branch(sym.Lt(v, sym.Int(0)))
			return NewStruct(c, "v", v)
		})
		d.GetFunc(c, K(c.Var("qa", nameSort, KindArg)))
		return nil
	}, Options{})
}
