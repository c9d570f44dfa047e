package history

import (
	"fmt"
	"sort"

	"repro/internal/mtrace"
)

// store is a component store with access tracking, the executable analog of
// §3.3's state tuples: a machine step "writes component i" when it changes
// it and "reads component i" when the component may affect the step. Each
// component is one cell of a traced memory, so two steps conflict exactly
// when mtrace says their cells do; the values stay in comps.
type store struct {
	mem   *mtrace.Memory
	comps map[string]any
	cells map[string]*mtrace.Cell
	th    int
}

func newStore() *store {
	return &store{mem: mtrace.NewMemory(), comps: map[string]any{}, cells: map[string]*mtrace.Cell{}}
}

// cell returns the component's cell, allocating it at first touch.
func (s *store) cell(name string) *mtrace.Cell {
	c, ok := s.cells[name]
	if !ok {
		c = s.mem.NewCell(name, 0)
		s.cells[name] = c
	}
	return c
}

func (s *store) read(name string) any {
	s.cell(name).Load(s.th)
	return s.comps[name]
}

func (s *store) write(name string, v any) {
	s.cell(name).Store(s.th, 0)
	s.comps[name] = v
}

// Machine executes invocations serially, producing responses.
type Machine interface {
	// Invoke runs one operation on the given thread.
	Invoke(thread int, class string, args []int64) []int64
	// Memory is the traced memory the machine's components live on, thread
	// t's steps accessing it as core t: wrap a region in Start and Stop and
	// read its Conflicts.
	Memory() *mtrace.Memory
}

// NonScalable is Figure 1's constructed implementation mns: it replays the
// target history H from a single shared history component, so any two steps
// conflict on "h", and falls back to emulating the reference on divergence.
type NonScalable struct {
	st  *store
	ref func() RefState
}

// NewNonScalable builds mns specialized for history h over the reference.
func NewNonScalable(h History, ref func() RefState) *NonScalable {
	m := &NonScalable{st: newStore(), ref: ref}
	m.st.comps["h"] = h
	m.st.comps["done"] = History{}
	m.st.comps["refstate"] = nil
	return m
}

// Memory implements Machine.
func (m *NonScalable) Memory() *mtrace.Memory { return m.st.mem }

// Invoke implements Machine.
func (m *NonScalable) Invoke(thread int, class string, args []int64) []int64 {
	m.st.th = thread

	hv := m.st.read("h")
	if rem, ok := hv.(History); ok {
		if len(rem) > 0 && matches(rem[0], thread, class, args) {
			// Replay mode: respond from H without touching the reference.
			done := m.st.read("done").(History)
			m.st.write("done", append(append(History{}, done...), rem[0]))
			m.st.write("h", rem[1:])
			return rem[0].Ret
		}
		// Input diverged (or H is complete): initialize the reference
		// with H′, the invocations consistent with what was replayed.
		done := m.st.read("done").(History)
		rs := m.ref()
		for _, o := range done {
			rs.Apply(o.Class, o.Args)
		}
		m.st.write("refstate", rs)
		m.st.write("h", "EMULATE")
	}
	rs := m.st.read("refstate").(RefState)
	ret := rs.Apply(class, args)
	m.st.write("refstate", rs)
	return ret
}

// Scalable is Figure 2's constructed implementation m: per-thread history
// components with a COMMUTE marker; inside the commutative region each step
// touches only the invoking thread's components, so the region is
// conflict-free. On divergence it reconstructs an invocation sequence
// consistent with the per-thread queues — SIM commutativity guarantees any
// such order yields indistinguishable results — and emulates the reference.
type Scalable struct {
	st      *store
	ref     func() RefState
	threads []int
}

// commuteMarker is Figure 2's special COMMUTE action.
var commuteMarker = Op{Class: "COMMUTE"}

// NewScalable builds m specialized for H = x||y over the reference, where y
// is the SIM-commutative region.
func NewScalable(x, y History, ref func() RefState) *Scalable {
	threadSet := map[int]bool{}
	for _, o := range x.Concat(y) {
		threadSet[o.Thread] = true
	}
	m := &Scalable{st: newStore(), ref: ref}
	for t := range threadSet {
		m.threads = append(m.threads, t)
	}
	sort.Ints(m.threads)
	for _, t := range m.threads {
		q := append(History{}, x...)
		q = append(q, commuteMarker)
		q = append(q, y.Restrict(t)...)
		m.st.comps[hComp(t)] = q
		m.st.comps[cComp(t)] = false
		m.st.comps[dComp(t)] = History{}
	}
	m.st.comps["refstate"] = nil
	m.st.comps["emulate"] = false
	// donex records the replayed prefix of X. Only replay-mode steps
	// touch it, and those already share the h[u] components, so it adds
	// no conflicts inside the commutative region.
	m.st.comps["donex"] = History{}
	return m
}

func hComp(t int) string { return fmt.Sprintf("h[%d]", t) }
func cComp(t int) string { return fmt.Sprintf("commute[%d]", t) }

// dComp tracks the consumed prefix of thread t's commutative region; it is
// a t-local component, so it adds no conflicts.
func dComp(t int) string { return fmt.Sprintf("donecommute[%d]", t) }

// Memory implements Machine.
func (m *Scalable) Memory() *mtrace.Memory { return m.st.mem }

// Invoke implements Machine.
func (m *Scalable) Invoke(thread int, class string, args []int64) []int64 {
	m.st.th = thread
	t := thread

	if m.st.read("emulate").(bool) {
		return m.emulateStep(class, args)
	}
	q := m.st.read(hComp(t)).(History)
	if len(q) > 0 && q[0].Class == commuteMarker.Class {
		m.st.write(cComp(t), true)
		q = q[1:]
		m.st.write(hComp(t), q)
	}
	if len(q) > 0 && matches(q[0], t, class, args) {
		ret := q[0].Ret
		if m.st.read(cComp(t)).(bool) {
			// Conflict-free mode: only thread-t components change.
			done := m.st.read(dComp(t)).(History)
			m.st.write(dComp(t), append(append(History{}, done...), q[0]))
			m.st.write(hComp(t), q[1:])
			return ret
		}
		// Replay mode: every thread's queue advances past this action.
		donex := m.st.read("donex").(History)
		m.st.write("donex", append(append(History{}, donex...), q[0]))
		for _, u := range m.threads {
			qu := m.st.read(hComp(u)).(History)
			if len(qu) > 0 && equalOp(qu[0], q[0]) {
				m.st.write(hComp(u), qu[1:])
			}
		}
		return ret
	}
	// Divergence: rebuild an invocation sequence consistent with the
	// per-thread queues. The inter-thread order of consumed commutative
	// actions is unrecoverable; any interleaving is valid by SIM
	// commutativity, so consume them thread by thread.
	m.initEmulation()
	return m.emulateStep(class, args)
}

// initEmulation rebuilds H′, an invocation sequence consistent with the
// observed consumption: the replayed X prefix in order, then each thread's
// consumed commutative actions. The inter-thread order inside the
// commutative region is unrecoverable from per-thread components, and SIM
// commutativity is exactly what makes any chosen interleaving valid.
func (m *Scalable) initEmulation() {
	var consistent History
	consistent = append(consistent, m.st.read("donex").(History)...)
	for _, u := range m.threads {
		consistent = append(consistent, m.st.read(dComp(u)).(History)...)
	}
	rs := m.ref()
	for _, o := range consistent {
		rs.Apply(o.Class, o.Args)
	}
	m.st.write("refstate", rs)
	m.st.write("emulate", true)
	for _, u := range m.threads {
		m.st.write(hComp(u), "EMULATE")
	}
}

func (m *Scalable) emulateStep(class string, args []int64) []int64 {
	rs := m.st.read("refstate").(RefState)
	ret := rs.Apply(class, args)
	m.st.write("refstate", rs)
	return ret
}

func matches(o Op, thread int, class string, args []int64) bool {
	if o.Thread != thread || o.Class != class || len(o.Args) != len(args) {
		return false
	}
	for i := range args {
		if o.Args[i] != args[i] {
			return false
		}
	}
	return true
}
