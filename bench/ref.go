package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"time"
)

// The reference pass is a fixed piece of work that has nothing to do with
// the program under test: a walk of dependent loads through 64 MB, then
// 600,000 small allocations into a map. The box this benchmark runs on is a
// share of a busy host, and how fast it runs the same code wanders by a
// factor of two over an hour, in phases that outlast a run (README.md,
// "Noise"). The pass wanders with it, so an untraced run times one pass
// between every two blocks of iterations and reports the median wall time as
// a multiple of the median pass (wall_p50_x); that ratio repeats where the
// milliseconds do not.
//
// The pass runs in a child process of its own, which is idle while the
// workload runs, as the workload is while the pass runs: the two never
// compete for the CPUs, the pass's garbage is not the measured process's to
// collect, and nothing a later change does to the program's heap can move the
// reference.
const (
	refWalkWords = 16 << 20 // uint32s: 64 MB, far beyond the 4 MB L2
	refWalkSteps = 1_000_000
	refAllocs    = 600_000
	refKeys      = 80_000
)

// refSink keeps the compiler from discarding the pass's work.
var refSink uint64

// newRefWalk links the words into one cycle that visits all of them: a
// full-period linear congruential step, so consecutive loads land far apart.
func newRefWalk() []uint32 {
	walk := make([]uint32, refWalkWords)
	for i := range walk {
		walk[i] = uint32((uint64(i)*1664525 + 1013904223) % refWalkWords)
	}
	return walk
}

type refNode struct {
	key  uint64
	next *refNode
	pad  [3]uint64
}

// refPass does the reference work once and returns how long it took.
func refPass(walk []uint32) time.Duration {
	start := time.Now()
	at := uint32(0)
	for range refWalkSteps {
		at = walk[at]
	}
	nodes := make(map[uint64]*refNode)
	x := uint64(88172645463325252)
	for range refAllocs {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		k := x % refKeys
		nodes[k] = &refNode{key: x, next: nodes[(k*7+1)%refKeys]}
	}
	sum := uint64(at)
	for _, n := range nodes {
		for depth := 0; n != nil && depth < 8; depth++ {
			sum += n.key
			n = n.next
		}
	}
	refSink += sum
	return time.Since(start)
}

// cmdRef is the child: it answers every line on standard input with the
// nanoseconds one pass took, and ends when standard input does.
func cmdRef(in io.Reader, out io.Writer) error {
	runtime.GOMAXPROCS(1)
	walk := newRefWalk()
	refPass(walk) // touch every page the pass allocates from before the first timed one
	if _, err := fmt.Fprintln(out, "ready"); err != nil {
		return err
	}
	sc := bufio.NewScanner(in)
	for sc.Scan() {
		if _, err := fmt.Fprintln(out, refPass(walk).Nanoseconds()); err != nil {
			return err
		}
	}
	return sc.Err()
}

// refProc is the parent's end of the child.
type refProc struct {
	cmd *exec.Cmd
	in  io.WriteCloser
	out *bufio.Reader
}

// startRef starts this binary again as the reference child and waits until
// it is ready to time passes.
func startRef(ctx context.Context) (*refProc, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.CommandContext(ctx, self, "ref")
	cmd.Stderr = os.Stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	r := &refProc{cmd: cmd, in: in, out: bufio.NewReader(out)}
	if line, err := r.out.ReadString('\n'); err != nil || line != "ready\n" {
		return nil, errors.Join(fmt.Errorf("reference child said %q: %v", line, err), r.stop())
	}
	return r, nil
}

// pass has the child do the reference work once.
func (r *refProc) pass() (time.Duration, error) {
	if _, err := io.WriteString(r.in, "\n"); err != nil {
		return 0, fmt.Errorf("reference child: %w", err)
	}
	var ns int64
	if _, err := fmt.Fscanln(r.out, &ns); err != nil {
		return 0, fmt.Errorf("reference child: %w", err)
	}
	return time.Duration(ns), nil
}

// stop ends the child by closing its standard input and waits for it.
func (r *refProc) stop() error {
	return errors.Join(r.in.Close(), r.cmd.Wait())
}
