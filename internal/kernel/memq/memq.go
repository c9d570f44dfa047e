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
	"slices"
	"strconv"
	"strings"

	"repro/internal/kernel"
	"repro/internal/mtrace"
	"repro/internal/scale"
)

// Setup is the queue spec's initial state: the queues' backlogs.
type Setup struct {
	Queues []SetupQueue
}

// SetupQueue seeds one queue. Core -1 is the shared ordered queue; Core >=
// 0 seeds that core's unordered queue. Items are queued page tokens,
// oldest first.
type SetupQueue struct {
	Core  int64
	Items []int64
}

// Fingerprint implements kernel.Setup.
func (s *Setup) Fingerprint() string { return string(s.AppendFingerprint(nil)) }

// AppendFingerprint implements kernel.Setup.
func (s *Setup) AppendFingerprint(dst []byte) []byte {
	for _, q := range s.Queues {
		dst = kernel.AppendItems(strconv.AppendInt(append(dst, 'Q'), q.Core, 10), q.Items)
	}
	return dst
}

// Clone implements kernel.Setup.
func (s *Setup) Clone() kernel.Setup {
	c := &Setup{Queues: slices.Clone(s.Queues)}
	for i := range c.Queues {
		c.Queues[i].Items = slices.Clone(c.Queues[i].Items)
	}
	return c
}

// Admit implements kernel.Setup: a setup seeds at most kernel.MaxExtent
// queues, each once, with at most kernel.MaxExtent items each.
func (s *Setup) Admit() error {
	var a kernel.Admission
	for _, q := range s.Queues {
		a.Within("queue backlog", 0, int64(len(q.Items)), kernel.MaxExtent)
	}
	kernel.Rows(&a, "queue core", s.Queues, func(q SetupQueue) int64 { return q.Core })
	return a.Err()
}

// String implements kernel.Setup.
func (s *Setup) String() string {
	var b strings.Builder
	for _, q := range s.Queues {
		if q.Core < 0 {
			fmt.Fprintf(&b, "queue ordered: %v\n", q.Items)
		} else {
			fmt.Fprintf(&b, "queue core %d: %v\n", q.Core, q.Items)
		}
	}
	return strings.TrimSuffix(b.String(), "\n")
}

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

// Apply seeds queue backlogs from a Setup (untraced).
func (k *Kern) Apply(s kernel.Setup) {
	for _, sq := range s.(*Setup).Queues {
		if sq.Core < 0 {
			k.ord.Seed(sq.Items)
			continue
		}
		k.coreQ(int(sq.Core)).Seed(sq.Items)
	}
}

// ops maps each queue operation to its body.
var ops = map[string]func(k *Kern, core int, c kernel.Call) kernel.Result{
	"send": func(k *Kern, core int, c kernel.Call) kernel.Result {
		return kernel.Result{Code: k.ord.Send(core, c.Arg("val"))}
	},
	"recv": func(k *Kern, core int, c kernel.Call) kernel.Result {
		seq, val, ok := k.ord.Recv(core)
		if !ok {
			return kernel.Errno(kernel.EAGAIN)
		}
		return kernel.Result{Code: 0, V1: seq, Data: val}
	},
	"send_any": func(k *Kern, core int, c kernel.Call) kernel.Result {
		k.coreQ(core).Send(core, c.Arg("val"))
		return kernel.Result{Code: 0}
	},
	"recv_any": func(k *Kern, core int, c kernel.Call) kernel.Result {
		_, val, ok := k.coreQ(core).Recv(core)
		if !ok {
			return kernel.Errno(kernel.EAGAIN)
		}
		return kernel.Result{Code: 0, Data: val}
	},
	"status": func(k *Kern, core int, c kernel.Call) kernel.Result {
		return kernel.Result{Code: k.ord.Len(core)}
	},
}

var refuse = kernel.RegisterSetup("queue", func() kernel.Setup { return new(Setup) }, ops)

// Refuse implements kernel.Kernel.
func (k *Kern) Refuse(tc *kernel.TestCase) error { return refuse(tc) }

// Exec performs one queue operation on the given simulated core.
func (k *Kern) Exec(core int, c kernel.Call) kernel.Result { return ops[c.Op](k, core, c) }
