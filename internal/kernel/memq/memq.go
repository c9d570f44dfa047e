// Package memq is the reference in-memory implementation of the queue
// spec (internal/queuespec): a shared ordered FIFO plus per-core
// unordered queues, built on traced mtrace cells so the standard MTRACE
// runner can check its conflict-freedom.
//
// Cell placement follows the sv6 pipe design: head and tail live on
// separate cache lines, each slot has its own message and full-flag
// cells, and receivers detect emptiness from the head slot's full flag —
// never by reading tail — so send/recv of a non-empty queue is
// conflict-free, exactly the executions the spec says commute. The
// unordered operations use the calling core's own queue (the §4 mail
// server's per-core load balancing), so send_any/recv_any from different
// cores touch disjoint cells.
package memq

import (
	"fmt"

	"repro/internal/kernel"
	"repro/internal/mtrace"
)

// fifo is one queue's cells: cursors on their own lines plus per-slot
// message and full-flag cells, created lazily by sequence number.
type fifo struct {
	mem   *mtrace.Memory
	label string
	head  *mtrace.Cell
	tail  *mtrace.Cell
	msgs  map[int64]*mtrace.Cell
	full  map[int64]*mtrace.Cell
}

func newFifo(mem *mtrace.Memory, label string) *fifo {
	return &fifo{
		mem:   mem,
		label: label,
		head:  mem.NewCell(label+".head", 0),
		tail:  mem.NewCell(label+".tail", 0),
		msgs:  map[int64]*mtrace.Cell{},
		full:  map[int64]*mtrace.Cell{},
	}
}

func (q *fifo) msg(seq int64) *mtrace.Cell {
	c, ok := q.msgs[seq]
	if !ok {
		c = q.mem.NewCellf(0, "%s.msg[%d]", q.label, seq)
		q.msgs[seq] = c
	}
	return c
}

func (q *fifo) fullFlag(seq int64) *mtrace.Cell {
	c, ok := q.full[seq]
	if !ok {
		c = q.mem.NewCellf(0, "%s.full[%d]", q.label, seq)
		q.full[seq] = c
	}
	return c
}

// send appends a message: writers own tail and the tail slot.
func (q *fifo) send(core int, val int64) int64 {
	t := q.tail.Load(core)
	q.msg(t).Store(core, val)
	q.fullFlag(t).Store(core, 1)
	q.tail.Store(core, t+1)
	return t
}

// recv takes the head message. Emptiness comes from the head slot's full
// flag, so receivers never read tail and a non-empty queue's send||recv
// is conflict-free.
func (q *fifo) recv(core int) (seq, val int64, ok bool) {
	h := q.head.Load(core)
	fc := q.fullFlag(h)
	if fc.Load(core) == 0 {
		return 0, 0, false
	}
	v := q.msg(h).Load(core)
	fc.Store(core, 0)
	q.head.Store(core, h+1)
	return h, v, true
}

// seed installs a backlog untraced (test setup).
func (q *fifo) seed(items []int64) {
	for i, v := range items {
		q.msg(int64(i)).Poke(v)
		q.fullFlag(int64(i)).Poke(1)
	}
	q.head.Poke(0)
	q.tail.Poke(int64(len(items)))
}

// Kern is the queue-spec reference implementation.
type Kern struct {
	mem *mtrace.Memory
	ord *fifo
	any map[int64]*fifo
}

// New returns a fresh, empty implementation instance.
func New() *Kern {
	mem := mtrace.NewMemory()
	return &Kern{mem: mem, ord: newFifo(mem, "mq"), any: map[int64]*fifo{}}
}

// Name identifies the implementation.
func (k *Kern) Name() string { return "memq" }

// Memory returns the traced memory. All of memq's state lives in traced
// cells (lazily created fifos persist across a reset with their cells
// value-restored, which is indistinguishable from fresh creation), so the
// journal alone suffices for batched replay.
func (k *Kern) Memory() *mtrace.Memory { return k.mem }

// coreQ returns (creating on first use) the per-core unordered queue.
// Creation allocates cells but records no accesses, so lazily building a
// queue inside a traced section is conflict-neutral.
func (k *Kern) coreQ(core int) *fifo {
	q, ok := k.any[int64(core)]
	if !ok {
		q = newFifo(k.mem, fmt.Sprintf("anyq[%d]", core))
		k.any[int64(core)] = q
	}
	return q
}

// Apply seeds queue backlogs from the setup (untraced); the fs/VM setup
// fields belong to the POSIX kernels and are ignored.
func (k *Kern) Apply(s kernel.Setup) {
	for _, sq := range s.Queues {
		if sq.Core < 0 {
			k.ord.seed(sq.Items)
			continue
		}
		k.coreQ(int(sq.Core)).seed(sq.Items)
	}
}

// Exec performs one queue operation on the given simulated core.
func (k *Kern) Exec(core int, c kernel.Call) kernel.Result {
	switch c.Op {
	case "send":
		seq := k.ord.send(core, c.Arg("val"))
		return kernel.Result{Code: seq}
	case "recv":
		seq, val, ok := k.ord.recv(core)
		if !ok {
			return kernel.Errno(kernel.EAGAIN)
		}
		return kernel.Result{Code: 0, V1: seq, Data: val}
	case "send_any":
		k.coreQ(core).send(core, c.Arg("val"))
		return kernel.Result{Code: 0}
	case "recv_any":
		_, val, ok := k.coreQ(core).recv(core)
		if !ok {
			return kernel.Errno(kernel.EAGAIN)
		}
		return kernel.Result{Code: 0, Data: val}
	case "status":
		n := k.ord.tail.Load(core) - k.ord.head.Load(core)
		return kernel.Result{Code: n}
	}
	panic("memq: unknown op " + c.Op)
}
