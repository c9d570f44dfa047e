// Package mail is the §7.3 application workload: a qmail-like mail server
// built from separate communicating stages — mail-enqueue writes the
// message and envelope to a spool directory and notifies the queue manager
// over a local socket; mail-qman reads notifications, opens the queued
// message, spawns the delivery helper, and removes the spool files;
// mail-deliver appends the message to the recipient's mailbox.
//
// Two API configurations mirror the paper's benchmark:
//
//   - Regular APIs: lowest-FD allocation, an order-preserving notification
//     socket (one shared queue), and fork/exec-style process spawning that
//     snapshots the parent's descriptor table.
//   - Commutative APIs (§4): O_ANYFD, an unordered datagram socket with
//     per-core queues and scalable load balancing, and posix_spawn, which
//     constructs the child image directly.
//
// The server drives the sv6 kernel for file system calls and models the
// socket and spawn paths with traced cells on the same memory, so MTRACE
// conflict analysis and coherence-simulator replay cover the whole
// pipeline. Its sockets are the queue spec's: scale.FIFOs, the queues
// memq implements `-spec queue` with — one shared for send/recv, one per
// core for send_any/recv_any.
package mail

import (
	"fmt"

	"repro/internal/kernel"
	"repro/internal/kernel/unix"
	"repro/internal/mtrace"
	"repro/internal/scale"
)

// Config selects the API variant.
type Config struct {
	// Commutative selects O_ANYFD + unordered socket + posix_spawn.
	Commutative bool
}

// Server is one mail-server instance over an sv6 kernel.
type Server struct {
	cfg Config
	k   *unix.Kern

	// sock[core] is the queue core's notifications go through: the one
	// order-preserving socket every core shares, or under commutative APIs
	// the core's own queue of the unordered socket (§4 "permit weak
	// ordering"; scalable load balancing drains the local queue first, and
	// the benchmark's pipeline always finds its own message there).
	sock [scale.NCores]*scale.FIFO

	// Process table: fork serializes on it; posix_spawn builds the child
	// image from per-core state.
	procLock  *scale.SpinLock
	procTable *mtrace.Cell
	coreProc  [scale.NCores]*mtrace.Cell

	// parentFDs models the parent descriptor table that fork snapshots.
	parentFDs []*mtrace.Cell

	seq [scale.NCores]int64
}

// NewServer builds a server over a fresh sv6 kernel.
func NewServer(cfg Config) *Server {
	k := unix.New(unix.SV6)
	mem := k.Memory()
	s := &Server{
		cfg:       cfg,
		k:         k,
		procLock:  scale.NewSpinLock(mem, "proctable.lock"),
		procTable: mem.NewCell("proctable", 0),
	}
	var shared *scale.FIFO
	if !cfg.Commutative {
		shared = scale.NewFIFO(mem, "sock")
	}
	for i := range s.coreProc {
		s.sock[i] = shared
		if cfg.Commutative {
			s.sock[i] = scale.NewFIFO(mem, fmt.Sprintf("sock.q[%d]", i))
		}
		s.coreProc[i] = mem.NewCellf(0, "proc.slot[%d]", i)
	}
	for i := 0; i < 16; i++ {
		s.parentFDs = append(s.parentFDs, mem.NewCellf(1, "parent.fd[%d]", i))
	}
	return s
}

// Memory exposes the traced memory.
func (s *Server) Memory() *mtrace.Memory { return s.k.Memory() }

// notify sends a queue notification carrying the envelope name id.
func (s *Server) notify(core int, env int64) { s.sock[core].Send(core, env) }

// fetchNotification receives one queue notification.
func (s *Server) fetchNotification(core int) (int64, bool) {
	_, env, ok := s.sock[core].Recv(core)
	return env, ok
}

// spawn models starting the delivery helper. fork snapshots the parent
// descriptor table and registers the child in the shared process table;
// posix_spawn constructs the child image from core-local state (§4
// "decompose compound operations").
func (s *Server) spawn(core int) {
	if s.cfg.Commutative {
		n := s.coreProc[core].Load(core)
		s.coreProc[core].Store(core, n+1)
		return
	}
	for _, fd := range s.parentFDs {
		_ = fd.Load(core) // fork reads every descriptor slot
	}
	s.procLock.Acquire(core)
	s.procTable.Add(core, 1)
	s.procLock.Release(core)
}

func (s *Server) anyfd() int64 {
	if s.cfg.Commutative {
		return 1
	}
	return 0
}

func (s *Server) call(core int, op string, args map[string]int64) kernel.Result {
	return s.k.Exec(core, kernel.Call{Op: op, Proc: 0, Args: args})
}

// nameFor derives unique file name ids per core, message and role so the
// spool and maildir files of different cores never collide.
func nameFor(core int, seq int64, role int64) int64 {
	return int64(core)*1_000_000 + seq*10 + role
}

const (
	roleMsg = iota
	roleEnv
	roleBox
)

// DeliverOne runs the full pipeline for one message on one core: enqueue,
// queue-manager fetch, spawn, deliver, cleanup. It returns an error if any
// kernel call misbehaves (semantics are checked, not just conflicts).
func (s *Server) DeliverOne(core int) error {
	seq := s.seq[core]
	s.seq[core]++
	msg := nameFor(core, seq, roleMsg)
	env := nameFor(core, seq, roleEnv)
	box := nameFor(core, seq, roleBox)

	// mail-enqueue: spool the message and envelope, then notify.
	fd := s.call(core, "open", map[string]int64{"fname": msg, "creat": 1, "anyfd": s.anyfd()})
	if fd.Code < 0 {
		return fmt.Errorf("mail: open msg: %v", fd)
	}
	if r := s.call(core, "write", map[string]int64{"fd": fd.Code, "val": 7}); r.Code != 1 {
		return fmt.Errorf("mail: write msg: %v", r)
	}
	if r := s.call(core, "close", map[string]int64{"fd": fd.Code}); r.Code != 0 {
		return fmt.Errorf("mail: close msg: %v", r)
	}
	fd = s.call(core, "open", map[string]int64{"fname": env, "creat": 1, "anyfd": s.anyfd()})
	if fd.Code < 0 {
		return fmt.Errorf("mail: open env: %v", fd)
	}
	if r := s.call(core, "write", map[string]int64{"fd": fd.Code, "val": int64(core)}); r.Code != 1 {
		return fmt.Errorf("mail: write env: %v", r)
	}
	if r := s.call(core, "close", map[string]int64{"fd": fd.Code}); r.Code != 0 {
		return fmt.Errorf("mail: close env: %v", r)
	}
	s.notify(core, env)

	// mail-qman: fetch the notification, read the envelope, spawn the
	// delivery helper.
	got, ok := s.fetchNotification(core)
	if !ok {
		return fmt.Errorf("mail: lost notification on core %d", core)
	}
	fd = s.call(core, "open", map[string]int64{"fname": got, "anyfd": s.anyfd()})
	if fd.Code < 0 {
		return fmt.Errorf("mail: open fetched env: %v", fd)
	}
	if r := s.call(core, "read", map[string]int64{"fd": fd.Code}); r.Code != 1 {
		return fmt.Errorf("mail: read env: %v", r)
	}
	if r := s.call(core, "close", map[string]int64{"fd": fd.Code}); r.Code != 0 {
		return fmt.Errorf("mail: close env2: %v", r)
	}
	s.spawn(core)

	// mail-deliver: append to the per-recipient maildir.
	fd = s.call(core, "open", map[string]int64{"fname": box, "creat": 1, "anyfd": s.anyfd()})
	if fd.Code < 0 {
		return fmt.Errorf("mail: open box: %v", fd)
	}
	mfd := s.call(core, "open", map[string]int64{"fname": msg, "anyfd": s.anyfd()})
	if mfd.Code < 0 {
		return fmt.Errorf("mail: reopen msg: %v", mfd)
	}
	r := s.call(core, "read", map[string]int64{"fd": mfd.Code})
	if r.Code != 1 || r.Data != 7 {
		return fmt.Errorf("mail: read msg: %v", r)
	}
	if r := s.call(core, "write", map[string]int64{"fd": fd.Code, "val": r.Data}); r.Code != 1 {
		return fmt.Errorf("mail: deliver write: %v", r)
	}
	if r := s.call(core, "close", map[string]int64{"fd": mfd.Code}); r.Code != 0 {
		return fmt.Errorf("mail: close msg2: %v", r)
	}
	if r := s.call(core, "close", map[string]int64{"fd": fd.Code}); r.Code != 0 {
		return fmt.Errorf("mail: close box: %v", r)
	}

	// qman cleanup: remove the spool files.
	if r := s.call(core, "unlink", map[string]int64{"fname": msg}); r.Code != 0 {
		return fmt.Errorf("mail: unlink msg: %v", r)
	}
	if r := s.call(core, "unlink", map[string]int64{"fname": env}); r.Code != 0 {
		return fmt.Errorf("mail: unlink env: %v", r)
	}
	return nil
}
