// Package memq is the reference in-memory implementation of the queue
// spec (internal/queuespec): a shared ordered FIFO plus per-core
// unordered queues, each a scale.FIFO — the sv6 pipe's design, whose
// send/recv of a non-empty queue is conflict-free, exactly the executions
// the spec says commute. The unordered operations use the calling core's
// own queue (the §4 mail server's per-core load balancing), so
// send_any/recv_any from different cores touch disjoint cells. The mail
// server's sockets are these same queues.
package memq

import (
	"fmt"

	"repro/internal/kernel"
	"repro/internal/mtrace"
	"repro/internal/scale"
)

// Kern is the queue-spec reference implementation.
type Kern struct {
	mem *mtrace.Memory
	ord *scale.FIFO
	any map[int]*scale.FIFO
}

// New returns a fresh, empty implementation instance.
func New() *Kern {
	mem := mtrace.NewMemory()
	return &Kern{mem: mem, ord: scale.NewFIFO(mem, "mq"), any: map[int]*scale.FIFO{}}
}

// Name identifies the implementation.
func (k *Kern) Name() string { return "memq" }

// Memory returns the traced memory. All of memq's state lives in traced
// cells (lazily created queues persist across a reset with their cells
// value-restored, which is indistinguishable from fresh creation), so the
// journal alone suffices for batched replay.
func (k *Kern) Memory() *mtrace.Memory { return k.mem }

// coreQ returns (creating on first use) the per-core unordered queue.
// Creation allocates cells but records no accesses, so lazily building a
// queue inside a traced section is conflict-neutral.
func (k *Kern) coreQ(core int) *scale.FIFO {
	q, ok := k.any[core]
	if !ok {
		q = scale.NewFIFO(k.mem, fmt.Sprintf("anyq[%d]", core))
		k.any[core] = q
	}
	return q
}

// Apply seeds queue backlogs from the setup (untraced); the fs/VM setup
// fields belong to the POSIX kernels and are ignored.
func (k *Kern) Apply(s kernel.Setup) {
	for _, sq := range s.Queues {
		if sq.Core < 0 {
			k.ord.Seed(sq.Items)
			continue
		}
		k.coreQ(int(sq.Core)).Seed(sq.Items)
	}
}

// Exec performs one queue operation on the given simulated core.
func (k *Kern) Exec(core int, c kernel.Call) kernel.Result {
	switch c.Op {
	case "send":
		return kernel.Result{Code: k.ord.Send(core, c.Arg("val"))}
	case "recv":
		seq, val, ok := k.ord.Recv(core)
		if !ok {
			return kernel.Errno(kernel.EAGAIN)
		}
		return kernel.Result{Code: 0, V1: seq, Data: val}
	case "send_any":
		k.coreQ(core).Send(core, c.Arg("val"))
		return kernel.Result{Code: 0}
	case "recv_any":
		_, val, ok := k.coreQ(core).Recv(core)
		if !ok {
			return kernel.Errno(kernel.EAGAIN)
		}
		return kernel.Result{Code: 0, Data: val}
	case "status":
		return kernel.Result{Code: k.ord.Len(core)}
	}
	panic("memq: unknown op " + c.Op)
}
