// The paper's §3 formalism, which the first half of the quickstart walks:
// histories of actions, specifications, SI and SIM commutativity,
// implementations as step functions whose state components are mtrace
// cells (construct.go), and the constructed implementations of Figures 1
// and 2 whose conflict-freedom inside SIM-commutative regions proves the
// scalable commutativity rule — judged by mtrace, the conflict rule CHECK
// applies to the kernels.
//
// Histories here are serial: each invocation is immediately followed by its
// response, so a history is a sequence of completed operations. This is the
// same sequential-consistency restriction §5.1 of the paper adopts for
// ANALYZER; reorderings still permute operations across threads while
// preserving each thread's program order, which is exactly the freedom the
// SIM-commutativity definitions quantify over.

package main

import (
	"fmt"
	"strings"
)

// Op is one completed operation: an invocation and its response.
type Op struct {
	// Thread issues the operation.
	Thread int
	// Class names the operation (e.g. "put", "max").
	Class string
	// Args are the invocation arguments.
	Args []int64
	// Ret is the response value vector.
	Ret []int64
}

func (o Op) String() string {
	args := make([]string, len(o.Args))
	for i, a := range o.Args {
		args[i] = fmt.Sprint(a)
	}
	rets := make([]string, len(o.Ret))
	for i, r := range o.Ret {
		rets[i] = fmt.Sprint(r)
	}
	return fmt.Sprintf("t%d:%s(%s)=%s", o.Thread, o.Class, strings.Join(args, ","), strings.Join(rets, ","))
}

// equalOp compares operations including responses.
func equalOp(a, b Op) bool {
	if a.Thread != b.Thread || a.Class != b.Class ||
		len(a.Args) != len(b.Args) || len(a.Ret) != len(b.Ret) {
		return false
	}
	for i := range a.Args {
		if a.Args[i] != b.Args[i] {
			return false
		}
	}
	for i := range a.Ret {
		if a.Ret[i] != b.Ret[i] {
			return false
		}
	}
	return true
}

// History is a serial history: a sequence of completed operations.
type History []Op

// Restrict returns the thread-restricted subhistory H|t.
func (h History) Restrict(t int) History {
	var out History
	for _, o := range h {
		if o.Thread == t {
			out = append(out, o)
		}
	}
	return out
}

// Concat returns h || g.
func (h History) Concat(g History) History {
	out := make(History, 0, len(h)+len(g))
	out = append(out, h...)
	return append(out, g...)
}

// Equal compares histories elementwise.
func (h History) Equal(g History) bool {
	if len(h) != len(g) {
		return false
	}
	for i := range h {
		if !equalOp(h[i], g[i]) {
			return false
		}
	}
	return true
}

// IsReordering reports whether g is a reordering of h: same operations,
// possibly interleaved differently, with every thread's order preserved.
func IsReordering(h, g History) bool {
	if len(h) != len(g) {
		return false
	}
	threads := map[int]bool{}
	for _, o := range h {
		threads[o.Thread] = true
	}
	for _, o := range g {
		threads[o.Thread] = true
	}
	for t := range threads {
		if !h.Restrict(t).Equal(g.Restrict(t)) {
			return false
		}
	}
	return true
}

// Reorderings enumerates every reordering of h (all interleavings of the
// per-thread sequences). The count is multinomial in the thread loads; keep
// regions short.
func Reorderings(h History) []History {
	perThread := map[int]History{}
	var threadOrder []int
	for _, o := range h {
		if _, ok := perThread[o.Thread]; !ok {
			threadOrder = append(threadOrder, o.Thread)
		}
		perThread[o.Thread] = append(perThread[o.Thread], o)
	}
	idx := make(map[int]int, len(threadOrder))
	var out []History
	cur := make(History, 0, len(h))
	var rec func()
	rec = func() {
		if len(cur) == len(h) {
			cp := make(History, len(cur))
			copy(cp, cur)
			out = append(out, cp)
			return
		}
		for _, t := range threadOrder {
			if idx[t] < len(perThread[t]) {
				cur = append(cur, perThread[t][idx[t]])
				idx[t]++
				rec()
				idx[t]--
				cur = cur[:len(cur)-1]
			}
		}
	}
	rec()
	return out
}

// Prefixes returns every prefix of h, including the empty and full ones.
func Prefixes(h History) []History {
	out := make([]History, 0, len(h)+1)
	for i := 0; i <= len(h); i++ {
		out = append(out, h[:i])
	}
	return out
}

// Spec decides history membership. Implementations must be prefix-closed:
// if OK(h) then OK of every prefix of h.
type Spec interface {
	OK(h History) bool
}

// RefState is a deterministic reference state machine: Apply executes one
// operation and returns its response.
type RefState interface {
	Apply(class string, args []int64) []int64
	// Clone returns an independent copy of the state.
	Clone() RefState
}

// RefSpec derives a specification from a deterministic reference state
// machine: a history is in the spec iff replaying its invocations yields
// exactly its responses.
type RefSpec struct {
	New func() RefState
}

// OK implements Spec.
func (s RefSpec) OK(h History) bool {
	st := s.New()
	for _, o := range h {
		got := st.Apply(o.Class, o.Args)
		if len(got) != len(o.Ret) {
			return false
		}
		for i := range got {
			if got[i] != o.Ret[i] {
				return false
			}
		}
	}
	return true
}

// SICommutes reports whether region y SI-commutes in x||y (§3.2): for every
// reordering y' of y and every observer suffix z drawn from zs,
// x||y||z ∈ S ⟺ x||y'||z ∈ S. The observer universe zs bounds the
// quantification over "any action sequence Z"; callers supply a generator
// covering the interface's observations.
func SICommutes(s Spec, x, y History, zs []History) bool {
	base := x.Concat(y)
	for _, y2 := range Reorderings(y) {
		alt := x.Concat(y2)
		for _, z := range zs {
			if s.OK(base.Concat(z)) != s.OK(alt.Concat(z)) {
				return false
			}
		}
		// The empty observer distinguishes invalid responses inside y'.
		if s.OK(base) != s.OK(alt) {
			return false
		}
	}
	return true
}

// SIMCommutes reports whether region y SIM-commutes in x||y (§3.2): every
// prefix p of every reordering of y must SI-commute in x||p. Monotonicity
// is what the rule's proof needs; §3.2's get/set example shows SI alone is
// not monotonic.
func SIMCommutes(s Spec, x, y History, zs []History) bool {
	for _, y2 := range Reorderings(y) {
		for _, p := range Prefixes(y2) {
			if !SICommutes(s, x, p, zs) {
				return false
			}
		}
	}
	return true
}

// ObserverUniverse builds bounded observer suffixes from candidate
// completed operations: all sequences up to maxLen.
func ObserverUniverse(candidates []Op, maxLen int) []History {
	out := []History{nil}
	prev := []History{nil}
	for l := 0; l < maxLen; l++ {
		var next []History
		for _, h := range prev {
			for _, c := range candidates {
				nh := append(append(History{}, h...), c)
				next = append(next, nh)
				out = append(out, nh)
			}
		}
		prev = next
	}
	return out
}

// CompletedOps enumerates candidate completed operations for observers:
// every class/args invocation paired with every plausible return drawn from
// rets.
func CompletedOps(thread int, class string, argSets [][]int64, rets [][]int64) []Op {
	var out []Op
	for _, args := range argSets {
		for _, r := range rets {
			out = append(out, Op{Thread: thread, Class: class, Args: args, Ret: r})
		}
	}
	return out
}
