package scale

import "repro/internal/mtrace"

// FIFO is sv6's pipe design (§6.3/§6.4), the one cell-backed queue the
// scalable implementations share: sv6 pipes, memq's queues and the mail
// server's notification sockets. Head and tail live on separate cache
// lines, and each sequence number has its own item and full-flag cells.
// Senders own tail and the tail slot; receivers own head and detect
// emptiness from the head slot's full flag, never by reading tail, so a
// send and a receive of a non-empty queue touch disjoint cells — exactly
// the executions the queue spec says commute. Two sends, or two receives,
// share their cursor, as every ordered queue's must.
//
// Cells are named <label>.head, .tail, .item[seq] and .full[seq]; a slot's
// cells are built at its first touch, which records no access.
type FIFO struct {
	mem   *mtrace.Memory
	label string
	head  *mtrace.Cell
	tail  *mtrace.Cell
	// slots[seq] is sequence number seq's slot. Sequence numbers are handed
	// out in order from 0, so the slice is dense.
	slots []fifoSlot
}

type fifoSlot struct{ item, full *mtrace.Cell }

// NewFIFO allocates an empty queue whose cells are named after label.
func NewFIFO(mem *mtrace.Memory, label string) *FIFO {
	return &FIFO{mem: mem, label: label, head: mem.NewCell(label+".head", 0), tail: mem.NewCell(label+".tail", 0)}
}

// slot returns seq's slot, building its cells on first touch. A slot born
// inside a snapshot region survives Reset with its cells journal-restored
// to 0, the state it would have been built in.
func (q *FIFO) slot(seq int64) *fifoSlot {
	for int64(len(q.slots)) <= seq {
		q.slots = append(q.slots, fifoSlot{})
	}
	s := &q.slots[seq]
	if s.item == nil {
		s.item = q.mem.NewCellf(0, "%s.item[%d]", q.label, seq)
		s.full = q.mem.NewCellf(0, "%s.full[%d]", q.label, seq)
	}
	return s
}

// Send appends v and returns its sequence number.
func (q *FIFO) Send(core int, v int64) int64 {
	t := q.tail.Load(core)
	s := q.slot(t)
	s.item.Store(core, v)
	s.full.Store(core, 1)
	q.tail.Store(core, t+1)
	return t
}

// Recv takes the head item and its sequence number; ok is false when the
// queue is empty.
func (q *FIFO) Recv(core int) (seq, v int64, ok bool) {
	h := q.head.Load(core)
	s := q.slot(h)
	if s.full.Load(core) == 0 {
		return 0, 0, false
	}
	v = s.item.Load(core)
	s.full.Store(core, 0)
	q.head.Store(core, h+1)
	return h, v, true
}

// Len returns the number of queued items. It reads both cursors (tail,
// then head), so it conflicts with every send and receive.
func (q *FIFO) Len(core int) int64 { return q.tail.Load(core) - q.head.Load(core) }

// Seed installs items as an empty queue's backlog, untraced (setup only).
func (q *FIFO) Seed(items []int64) {
	for i, v := range items {
		s := q.slot(int64(i))
		s.item.Poke(v)
		s.full.Poke(1)
	}
	q.head.Poke(0)
	q.tail.Poke(int64(len(items)))
}
