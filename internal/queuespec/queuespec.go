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

// MsgSort is the uninterpreted sort of message payloads: like the POSIX
// model's page contents, semantics only ever compare them for equality.
var MsgSort = sym.Uninterpreted("Msg")

// MsgZero is the distinguished empty payload filling unused data slots.
var MsgZero = sym.Const(MsgSort, 0)

// Bounds keep the symbolic domains small, like the POSIX model's.
const (
	// MaxQLen bounds initial queue backlogs (in messages).
	MaxQLen = 3
	// NQueues is the number of per-core queues behind the unordered
	// operations (two is enough: the calls of a pair run on two cores).
	NQueues = 2
)

// State is the symbolic queue state.
type State struct {
	// Ord maps (0) -> {head, tail}: the shared ordered queue's cursors
	// (a total-function view, like the POSIX pipe cursors).
	Ord *symx.Dict
	// OrdD maps (seq) -> {val}: ordered-queue content by sequence number.
	OrdD *symx.Dict
	// AnyQ maps (q) -> {head, tail}: per-core unordered queue cursors.
	AnyQ *symx.Dict
	// AnyD maps (q, seq) -> {val}: per-core queue content.
	AnyD *symx.Dict
}

// Dicts returns the dictionaries in comparison order. The cursor
// dictionaries' invariant closures probe nothing, so any order works;
// cursors precede content for readability of equivalence formulas.
func (s *State) Dicts() []*symx.Dict {
	return []*symx.Dict{s.Ord, s.AnyQ, s.OrdD, s.AnyD}
}

func cursorsVal(c *symx.Context, tag string) *symx.Struct {
	head := c.Var(tag+".head", sym.IntSort, symx.KindState)
	tail := c.Var(tag+".tail", sym.IntSort, symx.KindState)
	c.Assume(sym.And(
		sym.Ge(head, sym.Int(0)), sym.Le(head, tail), sym.Le(tail, sym.Int(MaxQLen))))
	return symx.NewStruct("head", head, "tail", tail)
}

func msgVal(c *symx.Context, tag string) *symx.Struct {
	return symx.NewStruct("val", c.Var(tag+".val", MsgSort, symx.KindState))
}

// NewState builds the symbolic state with unconstrained initial content:
// every queue starts with an arbitrary (bounded) backlog of arbitrary
// messages.
func NewState(c *symx.Context) *State {
	return &State{
		Ord:  symx.NewDict("mq", cursorsVal),
		OrdD: symx.NewDict("mqd", msgVal),
		AnyQ: symx.NewDict("anyq", cursorsVal),
		AnyD: symx.NewDict("anyqd", msgVal),
	}
}

func errRet(errno int64) []*sym.Expr {
	return []*sym.Expr{sym.Int(-errno), sym.Int(0), sym.Int(0), sym.Int(0), MsgZero}
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
	c.Assume(sym.And(sym.Ge(q, sym.Int(0)), sym.Le(q, sym.Int(NQueues-1))))
	return q
}

// ops is the op table: the five modeled operations in canonical (matrix)
// order, built once per process.
var ops = []*spec.Op{opSend(), opRecv(), opSendAny(), opRecvAny(), opStatus()}

func st(x *spec.Exec) *State { return x.S.(*State) }

func opSend() *spec.Op {
	return &spec.Op{
		Name: "send",
		Args: []spec.ArgSpec{{Name: "val", Sort: MsgSort}},
		Exec: func(x *spec.Exec, slot string, a []*sym.Expr) []*sym.Expr {
			s, val := st(x), a[0]
			q := s.Ord.GetFunc(x.C, ordKey())
			t := q.Get("tail")
			s.OrdD.Set(x.C, symx.K(t), symx.NewStruct("val", val))
			s.Ord.Set(x.C, ordKey(), q.With("tail", sym.Add(t, sym.Int(1))))
			// The assigned sequence number is the send's receipt: making
			// the order observable is what destroys commutativity (§4).
			return okRet(t, sym.Int(0), MsgZero)
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
			s.Ord.Set(x.C, ordKey(), q.With("head", sym.Add(h, sym.Int(1))))
			return okRet(sym.Int(0), h, v.Get("val"))
		},
	}
}

func opSendAny() *spec.Op {
	return &spec.Op{
		Name: "send_any",
		Args: []spec.ArgSpec{{Name: "val", Sort: MsgSort}},
		Exec: func(x *spec.Exec, slot string, a []*sym.Expr) []*sym.Expr {
			s, val := st(x), a[0]
			qi := pickQueue(x.C, slot)
			q := s.AnyQ.GetFunc(x.C, symx.K(qi))
			t := q.Get("tail")
			s.AnyD.Set(x.C, symx.K(qi, t), symx.NewStruct("val", val))
			s.AnyQ.Set(x.C, symx.K(qi), q.With("tail", sym.Add(t, sym.Int(1))))
			// No receipt: delivery order is deliberately unobservable.
			return okRet(sym.Int(0), sym.Int(0), MsgZero)
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
			s.AnyQ.Set(x.C, symx.K(qi), q.With("head", sym.Add(h, sym.Int(1))))
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
			return okRet(sym.Sub(q.Get("tail"), q.Get("head")), sym.Int(0), MsgZero)
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

func (queueSpec) NewState(c *symx.Context, cfg spec.Config) spec.State {
	return NewState(c)
}

func (queueSpec) Concretizer() spec.Concretizer { return concretizer{} }

func (queueSpec) Impls() []spec.Impl {
	return []spec.Impl{{Name: "memq", New: func() kernel.Kernel { return memq.New() }}}
}

// concretizer mines queue backlogs from the witness.
type concretizer struct{}

// FixupCall is a no-op: the queue interface has no per-call spec flags.
func (concretizer) FixupCall(cfg spec.Config, call *kernel.Call) {}

// PlanSetup plans the four queue dictionaries' probes of one path. The
// function it returns rebuilds concrete queue backlogs: for each probed
// queue, the messages between head and tail become the seeded items (the
// implementation renumbers from zero; sequence numbers are relative, so
// only the backlog's content and order matter).
func (concretizer) PlanSetup(a, b spec.State) func(sym.Model) kernel.Setup {
	sa, sb := a.(*State), b.(*State)
	ord, ordD := spec.PlanProbes(sa.Ord, sb.Ord), spec.PlanProbes(sa.OrdD, sb.OrdD)
	anyQ, anyD := spec.PlanProbes(sa.AnyQ, sb.AnyQ), spec.PlanProbes(sa.AnyD, sb.AnyD)
	return func(m sym.Model) kernel.Setup {
		var s kernel.Setup

		// Shared ordered queue.
		var ordCursors spec.Probe
		for _, p := range ord.Eval(m) {
			if p.Key[0] == 0 {
				ordCursors = p
			}
		}
		ordVals := map[int64]int64{}
		for _, p := range ordD.Eval(m) {
			ordVals[p.Key[0]] = p.Field("val")
		}
		if items := spec.BacklogItems(ordCursors, ordVals, MaxQLen); len(items) > 0 {
			s.Queues = append(s.Queues, kernel.SetupQueue{Core: -1, Items: items})
		}

		// Per-core unordered queues, in queue-id order.
		anyCursors := map[int64]spec.Probe{}
		for _, p := range anyQ.Eval(m) {
			qi := p.Key[0]
			if qi < 0 || qi >= NQueues {
				continue
			}
			anyCursors[qi] = p
		}
		anyVals := map[int64]map[int64]int64{}
		for _, p := range anyD.Eval(m) {
			qi, seq := p.Key[0], p.Key[1]
			if anyVals[qi] == nil {
				anyVals[qi] = map[int64]int64{}
			}
			anyVals[qi][seq] = p.Field("val")
		}
		for qi := int64(0); qi < NQueues; qi++ {
			if items := spec.BacklogItems(anyCursors[qi], anyVals[qi], MaxQLen); len(items) > 0 {
				s.Queues = append(s.Queues, kernel.SetupQueue{Core: qi, Items: items})
			}
		}
		return s
	}
}
