// Package kerneltest holds the oracles kernel implementations and the
// CHECK path are tested against, none of which share code with what they
// check: the fresh-kernel Check (two new kernels per test, no journal, no
// replay), the post-hoc conflict scan of the access log, and the
// randomized harnesses that hold a kernel's Replayer and online conflict
// detection to those two.
package kerneltest

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/kernel"
	"repro/internal/mtrace"
)

// Check runs tc on kernels produced by fresh (one per order), recording
// accesses for the two calls and analyzing conflicts, like MTRACE's
// qemu hypercall + log analysis. It is the reference the setup-batched
// kernel.Replayer must reproduce exactly.
func Check(fresh func() kernel.Kernel, tc kernel.TestCase) kernel.CheckResult {
	k := fresh()
	k.Apply(tc.Setup)
	mem := k.Memory()
	mem.Start()
	r0 := k.Exec(0, tc.Calls[0])
	r1 := k.Exec(1, tc.Calls[1])
	mem.Stop()
	conflicts := mem.Conflicts()

	// Opposite order on a fresh kernel for the commutativity check.
	k2 := fresh()
	k2.Apply(tc.Setup)
	s1 := k2.Exec(1, tc.Calls[1])
	s0 := k2.Exec(0, tc.Calls[0])

	return kernel.CheckResult{
		Test:         tc,
		ConflictFree: len(conflicts) == 0,
		Conflicts:    conflicts,
		Res:          [2]kernel.Result{r0, r1},
		Commuted:     r0 == s0 && r1 == s1,
		ResSwapped:   [2]kernel.Result{s0, s1},
	}
}

// OracleConflicts is the pre-epoch conflict algorithm, kept as the oracle
// for mtrace's online detector: scan the full access log, build per-cell
// writer/reader core sets, and report cells with more than one writer or
// with a reader besides the single writer, sorted by cell name.
func OracleConflicts(accesses []mtrace.Access) []mtrace.Conflict {
	type cellState struct {
		cell    *mtrace.Cell
		writers map[int]bool
		readers map[int]bool
	}
	states := map[*mtrace.Cell]*cellState{}
	var order []*cellState
	for _, a := range accesses {
		st := states[a.Cell]
		if st == nil {
			st = &cellState{cell: a.Cell, writers: map[int]bool{}, readers: map[int]bool{}}
			states[a.Cell] = st
			order = append(order, st)
		}
		if a.Write {
			st.writers[a.Core] = true
		} else {
			st.readers[a.Core] = true
		}
	}
	cores := func(set map[int]bool) []int {
		var out []int
		for c := range set {
			out = append(out, c)
		}
		sort.Ints(out)
		return out
	}
	var out []mtrace.Conflict
	for _, st := range order {
		conflict := len(st.writers) > 1
		if !conflict && len(st.writers) == 1 {
			var w int
			for core := range st.writers {
				w = core
			}
			for core := range st.readers {
				if core != w {
					conflict = true
					break
				}
			}
		}
		if conflict {
			out = append(out, mtrace.Conflict{
				CellName: st.cell.Name(),
				Writers:  cores(st.writers),
				Readers:  cores(st.readers),
			})
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].CellName < out[j].CellName })
	return out
}

// CheckOnline holds m's online verdict on its last traced region — and the
// materialized conflict report — to OracleConflicts over the region's
// access log (m must have LogAccesses on). It returns a description of
// the first disagreement, or "".
func CheckOnline(m *mtrace.Memory) string {
	want := OracleConflicts(m.Accesses())
	if m.ConflictFree() != (len(want) == 0) {
		return fmt.Sprintf("ConflictFree=%v, oracle conflicts=%d", m.ConflictFree(), len(want))
	}
	if got := m.Conflicts(); (len(got) != 0 || len(want) != 0) && !reflect.DeepEqual(got, want) {
		return fmt.Sprintf("\n online: %v\n oracle: %v", got, want)
	}
	return ""
}

// Logged wraps fresh so that every kernel it builds logs its accesses, and
// hands each kernel's memory to seen.
func Logged(fresh func() kernel.Kernel, seen func(*mtrace.Memory)) func() kernel.Kernel {
	return func() kernel.Kernel {
		k := fresh()
		k.Memory().LogAccesses(true)
		seen(k.Memory())
		return k
	}
}

// AccessLog renders m's last traced region access by access. Cells are
// named, not compared by identity: the two kernels being compared allocate
// theirs independently, and on demand.
func AccessLog(m *mtrace.Memory) []string {
	var out []string
	for _, a := range m.Accesses() {
		out = append(out, fmt.Sprintf("%s core=%d write=%v", a.Cell.Name(), a.Core, a.Write))
	}
	return out
}

// ReplayMatchesFresh is the setup snapshot/reset oracle: a single
// long-lived Replayer runs many randomized setup groups, and every
// CheckResult must exactly match Check, which builds two fresh kernels per
// test — and so must the ordered access log of the traced replay, cell by
// cell. Any state the memory's Reset fails to restore — a cell
// value, a stale or lost map entry, a counter — surfaces as a result,
// commuted, or conflict-report mismatch in a later test or group; the log
// additionally catches what conflict reports are blind to: an extra or
// missing read, a different order, a structure built on demand by a traced
// access where the fresh kernel builds it untraced.
func ReplayMatchesFresh(t *testing.T, fresh func() kernel.Kernel, gen Gen) {
	t.Helper()
	r := rand.New(rand.NewSource(1))
	var repMem *mtrace.Memory
	rep := kernel.NewReplayer(Logged(fresh, func(m *mtrace.Memory) { repMem = m }))
	for group := 0; group < 60; group++ {
		setup := gen.Setup(r)
		var tests []kernel.TestCase
		for i := 0; i < 1+r.Intn(6); i++ {
			tests = append(tests, kernel.TestCase{
				ID:    "t",
				Setup: setup,
				Calls: [2]kernel.Call{gen.Call(r), gen.Call(r)},
			})
		}
		groups, err := rep.CheckTests(context.Background(), tests, func(i int, got kernel.CheckResult) {
			// Check traces on the first kernel it builds; the second only
			// re-executes in the opposite order.
			var freshMem *mtrace.Memory
			want := Check(Logged(fresh, func(m *mtrace.Memory) {
				if freshMem == nil {
					freshMem = m
				}
			}), tests[i])
			if got.ConflictFree != want.ConflictFree ||
				got.Res != want.Res ||
				got.Commuted != want.Commuted ||
				got.ResSwapped != want.ResSwapped ||
				!reflect.DeepEqual(got.Conflicts, want.Conflicts) {
				t.Fatalf("group %d test %d (%v || %v): replayed %+v != fresh %+v",
					group, i, tests[i].Calls[0], tests[i].Calls[1], got, want)
			}
			if gotLog, wantLog := AccessLog(repMem), AccessLog(freshMem); !reflect.DeepEqual(gotLog, wantLog) {
				t.Fatalf("group %d test %d (%v || %v): replayed access log\n %v\n!= fresh\n %v",
					group, i, tests[i].Calls[0], tests[i].Calls[1], gotLog, wantLog)
			}
		})
		if err != nil || groups != 1 {
			t.Fatalf("group %d: one setup replayed as %d groups, err %v", group, groups, err)
		}
	}
}

// OnlineMatchesOracle runs randomized multi-core call sequences directly
// on the kernel with the access log enabled and checks the online verdict
// against the post-hoc oracle, across several traced regions per kernel
// instance (the epoch bump must isolate regions).
func OnlineMatchesOracle(t *testing.T, fresh func() kernel.Kernel, gen Gen) {
	t.Helper()
	for seed := int64(0); seed < 60; seed++ {
		r := rand.New(rand.NewSource(seed))
		k := fresh()
		m := k.Memory()
		m.LogAccesses(true)
		k.Apply(gen.Setup(r))
		for region := 0; region < 3; region++ {
			m.Start()
			for i := 0; i < r.Intn(12); i++ {
				k.Exec(r.Intn(4), gen.Call(r))
			}
			m.Stop()
			if diff := CheckOnline(m); diff != "" {
				t.Fatalf("seed %d region %d: %s", seed, region, diff)
			}
		}
	}
}
