// Package queuespec is a symbolic model of the §7.3 mail server's
// communication interface, registered as the "queue" spec. It is the
// second interface the pipeline analyzes — the proof that the COMMUTER
// layers are generic over spec.Spec — and it reproduces, symbolically,
// the paper's §4 argument about ordered communication:
//
//   - send/recv is the order-preserving notification socket of the
//     regular mail APIs: send appends to one shared FIFO and returns the
//     assigned sequence number; recv takes from the head and returns the
//     message's sequence number with its payload. Because the sequence
//     order is observable, two sends never SIM-commute (their receipts
//     swap across orders), and send/recv commute only on a non-empty
//     queue (they touch opposite ends).
//   - send_any/recv_any is the commutative §4 redesign (the unordered
//     datagram socket with per-core load-balanced queues): delivery order
//     is unspecified, modeled as a nondeterministic queue choice, and no
//     position receipt is returned — so two send_anys (and two
//     recv_anys) always admit a commutative execution in which the
//     nondeterministic choices land on different queues.
//   - status reports the ordered queue's backlog (the qman status
//     query). It never commutes with ordered mutations (the count it
//     returns moves) but commutes with the unordered ops, whose state it
//     does not observe.
//
// The reference in-memory implementation is internal/kernel/memq, checked
// for conflict-freedom by the standard MTRACE runner.
package queuespec

import (
	"repro/internal/kernel"
	"repro/internal/kernel/memq"
	"repro/internal/spec"
	"repro/internal/sym"
	"repro/internal/symx"
)

// msgSort is the uninterpreted sort of message payloads: like the POSIX
// model's page contents, semantics only ever compare them for equality.
var msgSort = sym.Uninterpreted("Msg")

// msgZero is the distinguished empty payload filling unused data slots.
var msgZero = sym.Const(msgSort, 0)

// Bounds keep the symbolic domains small, like the POSIX model's.
const (
	// maxQLen bounds initial queue backlogs (in messages).
	maxQLen = 3
	// nQueues is the number of per-core queues behind the unordered
	// operations (two is enough: the calls of a pair run on two cores).
	nQueues = 2
)

// state is the symbolic queue state.
type state struct {
	// Ord maps (0) -> {head, tail}: the shared ordered queue's cursors
	// (a total-function view, like the POSIX pipe cursors).
	Ord *symx.Dict
	// OrdD maps (seq) -> {val}: ordered-queue content by sequence number.
	OrdD *symx.Dict
	// AnyQ maps (q) -> {head, tail}: per-core unordered queue cursors.
	AnyQ *symx.Dict
	// AnyD maps (q, seq) -> {val}: per-core queue content.
	AnyD *symx.Dict
	// dicts is Dicts' slice.
	dicts [4]*symx.Dict
}

// Dicts returns the dictionaries in comparison order. The cursor
// dictionaries' invariant closures probe nothing, so any order works;
// cursors precede content for readability of equivalence formulas.
func (s *state) Dicts() []*symx.Dict { return s.dicts[:] }

func cursorsVal(c *symx.Context, tag string) *symx.Struct {
	head := c.Var(tag+".head", sym.IntSort, symx.KindState)
	tail := c.Var(tag+".tail", sym.IntSort, symx.KindState)
	c.Assume(sym.And(
		sym.Ge(head, sym.Int(0)), sym.Le(head, tail), sym.Le(tail, sym.Int(maxQLen))))
	return symx.NewStruct(c, "head", head, "tail", tail)
}

func msgVal(c *symx.Context, tag string) *symx.Struct {
	return symx.NewStruct(c, "val", c.Var(tag+".val", msgSort, symx.KindState))
}

func errRet(errno int64) []*sym.Expr {
	return []*sym.Expr{sym.Int(-errno), sym.Int(0), sym.Int(0), sym.Int(0), msgZero}
}

func okRet(code *sym.Expr, i1 *sym.Expr, data *sym.Expr) []*sym.Expr {
	return []*sym.Expr{code, i1, sym.Int(0), sym.Int(0), data}
}

// ordKey is the (single) ordered queue's dictionary key.
func ordKey() symx.Key { return symx.K(sym.Int(0)) }

// pickQueue nondeterministically selects one of the per-core queues: the
// specification leaves the delivery queue unspecified, which is exactly
// what lets the unordered operations commute (the choices can land on
// different queues).
func pickQueue(c *symx.Context, slot string) *sym.Expr {
	q := c.Var("anyq.pick."+slot, sym.IntSort, symx.KindNondet)
	c.Assume(sym.And(sym.Ge(q, sym.Int(0)), sym.Le(q, sym.Int(nQueues-1))))
	return q
}

// ops is the op table: the five modeled operations in canonical (matrix)
// order, built once per process.
var ops = []*spec.Op{opSend(), opRecv(), opSendAny(), opRecvAny(), opStatus()}

func st(x *spec.Exec) *state { return x.S.(*state) }

func opSend() *spec.Op {
	return &spec.Op{
		Name: "send",
		Args: []spec.ArgSpec{{Name: "val", Sort: msgSort}},
		Exec: func(x *spec.Exec, slot string, a []*sym.Expr) []*sym.Expr {
			s, val := st(x), a[0]
			q := s.Ord.GetFunc(x.C, ordKey())
			t := q.Get("tail")
			s.OrdD.Set(x.C, symx.K(t), symx.NewStruct(x.C, "val", val))
			s.Ord.Set(x.C, ordKey(), q.With(x.C, "tail", sym.Add(t, sym.Int(1))))
			// The assigned sequence number is the send's receipt: making
			// the order observable is what destroys commutativity (§4).
			return okRet(t, sym.Int(0), msgZero)
		},
	}
}

func opRecv() *spec.Op {
	return &spec.Op{
		Name: "recv",
		Args: nil,
		Exec: func(x *spec.Exec, slot string, a []*sym.Expr) []*sym.Expr {
			s := st(x)
			q := s.Ord.GetFunc(x.C, ordKey())
			h := q.Get("head")
			if x.C.Branch(sym.Eq(h, q.Get("tail"))) {
				return errRet(kernel.EAGAIN) // modeled as non-blocking
			}
			v := s.OrdD.GetFunc(x.C, symx.K(h))
			s.Ord.Set(x.C, ordKey(), q.With(x.C, "head", sym.Add(h, sym.Int(1))))
			return okRet(sym.Int(0), h, v.Get("val"))
		},
	}
}

func opSendAny() *spec.Op {
	return &spec.Op{
		Name: "send_any",
		Args: []spec.ArgSpec{{Name: "val", Sort: msgSort}},
		Exec: func(x *spec.Exec, slot string, a []*sym.Expr) []*sym.Expr {
			s, val := st(x), a[0]
			qi := pickQueue(x.C, slot)
			q := s.AnyQ.GetFunc(x.C, symx.K(qi))
			t := q.Get("tail")
			s.AnyD.Set(x.C, symx.K(qi, t), symx.NewStruct(x.C, "val", val))
			s.AnyQ.Set(x.C, symx.K(qi), q.With(x.C, "tail", sym.Add(t, sym.Int(1))))
			// No receipt: delivery order is deliberately unobservable.
			return okRet(sym.Int(0), sym.Int(0), msgZero)
		},
	}
}

func opRecvAny() *spec.Op {
	return &spec.Op{
		Name: "recv_any",
		Args: nil,
		Exec: func(x *spec.Exec, slot string, a []*sym.Expr) []*sym.Expr {
			s := st(x)
			qi := pickQueue(x.C, slot)
			q := s.AnyQ.GetFunc(x.C, symx.K(qi))
			h := q.Get("head")
			if x.C.Branch(sym.Eq(h, q.Get("tail"))) {
				return errRet(kernel.EAGAIN) // the polled queue is empty
			}
			v := s.AnyD.GetFunc(x.C, symx.K(qi, h))
			s.AnyQ.Set(x.C, symx.K(qi), q.With(x.C, "head", sym.Add(h, sym.Int(1))))
			return okRet(sym.Int(0), sym.Int(0), v.Get("val"))
		},
	}
}

func opStatus() *spec.Op {
	return &spec.Op{
		Name: "status",
		Args: nil,
		Exec: func(x *spec.Exec, slot string, a []*sym.Expr) []*sym.Expr {
			s := st(x)
			q := s.Ord.GetFunc(x.C, ordKey())
			return okRet(sym.Sub(q.Get("tail"), q.Get("head")), sym.Int(0), msgZero)
		},
	}
}

// queueSpec packages the model as the registered "queue" spec.
type queueSpec struct{}

// Spec is the queue model as a pluggable pipeline spec.
var Spec spec.Spec = queueSpec{}

func init() { spec.Register(Spec) }

func (queueSpec) Name() string { return "queue" }

func (queueSpec) Ops() []*spec.Op { return ops }

func (queueSpec) Sets() map[string][]string {
	return map[string][]string{
		"ordered": {"send", "recv", "status"},
		"any":     {"send_any", "recv_any"},
	}
}

// DefaultSet: the queue universe is tiny, so default to all of it.
func (queueSpec) DefaultSet() string { return "all" }

// NewState builds the symbolic state with unconstrained initial content:
// every queue starts with an arbitrary (bounded) backlog of arbitrary
// messages. The state lives in the region of c's Solver (symx.New).
func (queueSpec) NewState(c *symx.Context, cfg spec.Config) spec.State {
	s := symx.New[state](c)
	s.Ord, s.OrdD = symx.NewDict(c, "mq", cursorsVal), symx.NewDict(c, "mqd", msgVal)
	s.AnyQ, s.AnyD = symx.NewDict(c, "anyq", cursorsVal), symx.NewDict(c, "anyqd", msgVal)
	s.dicts = [...]*symx.Dict{s.Ord, s.AnyQ, s.OrdD, s.AnyD}
	return s
}

func (queueSpec) Impls() []spec.Impl {
	return []spec.Impl{{Name: "memq", New: func() kernel.Kernel { return memq.New() }}}
}

// FixupCall is a no-op: the queue interface has no per-call spec flags.
func (queueSpec) FixupCall(cfg spec.Config, call *kernel.Call) {}

// miner is the queue SetupMiner: the maps and slices a setup is mined
// into, cleared and reused from model to model. It rebuilds concrete queue
// backlogs: for each probed queue, the messages between head and tail
// become the seeded items (the implementation renumbers from zero;
// sequence numbers are relative, so only the backlog's content and order
// matter).
type miner struct {
	ordVals map[int64]int64
	// anyCursors holds each probed unordered queue's cursors, emptied once
	// the backlogs are built, so no probe outlives a Setup.
	anyCursors map[int64]spec.Probe
	// anyVals keeps an inner map per queue id ever mined, emptied at each
	// model.
	anyVals map[int64]map[int64]int64
	// items[i] backs the backlog of the i-th queue a setup adds, queues
	// the setup's Queues, and out the Setup it returns.
	items  [][]int64
	queues []memq.SetupQueue
	out    memq.Setup
}

// NewMiner returns a queue miner with its maps made.
func (queueSpec) NewMiner() spec.SetupMiner {
	return &miner{ordVals: map[int64]int64{}, anyCursors: map[int64]spec.Probe{}, anyVals: map[int64]map[int64]int64{}}
}

// addQueue appends a queue seeded with the backlog cursors and vals
// describe, unless that backlog is empty.
func (mn *miner) addQueue(core int64, cursors spec.Probe, vals map[int64]int64) {
	i := len(mn.queues)
	if i == len(mn.items) {
		mn.items = append(mn.items, nil)
	}
	mn.items[i] = spec.AppendBacklog(mn.items[i][:0], cursors, vals, maxQLen)
	if len(mn.items[i]) > 0 {
		mn.queues = append(mn.queues, memq.SetupQueue{Core: core, Items: mn.items[i]})
	}
}

// Setup mines the queues' backlogs under m.
func (mn *miner) Setup(m sym.Model, probes *spec.Probes) kernel.Setup {
	clear(mn.ordVals)
	for _, vals := range mn.anyVals {
		clear(vals)
	}
	mn.queues = mn.queues[:0]

	// Shared ordered queue.
	var ordCursors spec.Probe
	for _, p := range probes.Eval("mq", m) {
		if p.Key[0] == 0 {
			ordCursors = p
		}
	}
	for _, p := range probes.Eval("mqd", m) {
		mn.ordVals[p.Key[0]] = p.Field("val")
	}
	mn.addQueue(-1, ordCursors, mn.ordVals)

	// Per-core unordered queues, in queue-id order.
	for _, p := range probes.Eval("anyq", m) {
		qi := p.Key[0]
		if qi < 0 || qi >= nQueues {
			continue
		}
		mn.anyCursors[qi] = p
	}
	for _, p := range probes.Eval("anyqd", m) {
		qi, seq := p.Key[0], p.Key[1]
		vals := mn.anyVals[qi]
		if vals == nil {
			vals = map[int64]int64{}
			mn.anyVals[qi] = vals
		}
		vals[seq] = p.Field("val")
	}
	for qi := int64(0); qi < nQueues; qi++ {
		mn.addQueue(qi, mn.anyCursors[qi], mn.anyVals[qi])
	}
	clear(mn.anyCursors)
	mn.out = memq.Setup{Queues: spec.OrNil(mn.queues)}
	return &mn.out
}
