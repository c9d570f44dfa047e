// Package eval regenerates the paper's Figure 7 throughput curves
// (statbench, openbench, mail server) on the MESI coherence simulator. The
// Figure 6 conflict-freedom matrices are package commuter's: a rendering
// of a sweep result, beside the sweep.
package eval

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/coherence"
	"repro/internal/kernel"
	"repro/internal/kernel/unix"
	"repro/internal/mail"
	"repro/internal/mtrace"
	"repro/internal/scale"
)

// captureOps records the cache-line access sequences of a series of
// operation thunks executed on the given traced memory, one coherence.Op
// per thunk.
func captureOps(mem *mtrace.Memory, thunks []func()) coherence.CoreTrace {
	// The per-access log is opt-in (the CHECK path detects conflicts online
	// and never materializes it); the coherence simulator is the consumer
	// that genuinely needs the ordered access sequence.
	mem.LogAccesses(true)
	var trace coherence.CoreTrace
	for _, th := range thunks {
		mem.Start()
		th()
		mem.Stop()
		var op coherence.Op
		for _, a := range mem.Accesses() {
			op = append(op, coherence.Access{Line: a.Cell.ID(), Write: a.Write})
		}
		trace = append(trace, op)
	}
	return trace
}

// curve is one throughput-vs-cores series.
type curve struct {
	Name   string
	Cores  []int
	PerSec []float64 // per-core throughput (simulated ops/Mcycle/core)
}

// DefaultCores is the x-axis of the Figure 7 plots.
var DefaultCores = []int{1, 10, 20, 30, 40, 50, 60, 70, 80}

// statbenchMode selects the statbench variant (Figure 7a).
type statbenchMode int

const (
	// statFstatx omits st_nlink (commutative with link/unlink).
	statFstatx statbenchMode = iota
	// statRefcache returns st_nlink from a Refcache counter.
	statRefcache
	// statShared returns st_nlink from a single shared counter.
	statShared
)

func (m statbenchMode) String() string {
	switch m {
	case statFstatx:
		return "Without st_nlink"
	case statRefcache:
		return "With Refcache st_nlink"
	default:
		return "With shared st_nlink"
	}
}

// statbench reproduces Figure 7(a): n/2 cores fstat one file while n/2
// cores link/unlink it. Returns fstats per Mcycle per fstat-core.
func statbench(mode statbenchMode, cores []int) curve {
	c := curve{Name: mode.String(), Cores: cores}
	for _, n := range cores {
		c.PerSec = append(c.PerSec, statbenchAt(mode, n))
	}
	return c
}

func statbenchAt(mode statbenchMode, n int) float64 {
	d := unix.SV6
	if mode == statShared {
		d = unix.SV6SharedLinkCount
	}
	k := unix.New(d)
	k.Apply(&unix.Setup{
		Files:  []unix.SetupFile{{Name: 0, Inum: 1}},
		Inodes: []unix.SetupInode{{Inum: 1, Len: 1, Pages: map[int64]int64{0: 1}}},
	})
	// Each core opens the target file once, untraced.
	fds := make([]int64, n)
	for c := 0; c < n; c++ {
		r := k.Exec(c, kernel.Call{Op: "open", Args: map[string]int64{"fname": 0, "anyfd": 1}})
		if r.Code < 0 {
			panic(fmt.Sprint("statbench open: ", r))
		}
		fds[c] = r.Code
	}

	statCores := (n + 1) / 2
	traces := make([]coherence.CoreTrace, n)
	for c := 0; c < n; c++ {
		core := c
		if core < statCores {
			args := map[string]int64{"fd": fds[core]}
			if mode == statFstatx {
				args["nolink"] = 1
			}
			traces[core] = captureOps(k.Memory(), []func(){
				func() { k.Exec(core, kernel.Call{Op: "fstat", Args: args}) },
			})
		} else {
			// link/unlink loop: link f0 to a core-unique name, unlink it.
			nm := int64(1000 + core)
			traces[core] = captureOps(k.Memory(), []func(){
				func() { k.Exec(core, kernel.Call{Op: "link", Args: map[string]int64{"old": 0, "new": nm}}) },
				func() { k.Exec(core, kernel.Call{Op: "unlink", Args: map[string]int64{"fname": nm}}) },
			})
		}
	}
	res := coherence.Simulate(traces, coherence.Opts{})
	// Figure 7a plots fstat throughput per core.
	var statOps int64
	for c := 0; c < statCores; c++ {
		statOps += res.Ops[c]
	}
	return float64(statOps) / float64(res.Duration) * 1e6 / float64(statCores)
}

// openbench reproduces Figure 7(b): n cores open and close per-core files,
// with either any-FD or lowest-FD allocation.
func openbench(anyFD bool, cores []int) curve {
	name := "Lowest FD"
	if anyFD {
		name = "Any FD"
	}
	c := curve{Name: name, Cores: cores}
	for _, n := range cores {
		c.PerSec = append(c.PerSec, openbenchAt(anyFD, n))
	}
	return c
}

func openbenchAt(anyFD bool, n int) float64 {
	k := unix.New(unix.SV6)
	var setup unix.Setup
	for c := 0; c < n; c++ {
		setup.Files = append(setup.Files, unix.SetupFile{Name: int64(c), Inum: int64(c + 1)})
		setup.Inodes = append(setup.Inodes, unix.SetupInode{Inum: int64(c + 1)})
	}
	k.Apply(&setup)
	var af int64
	if anyFD {
		af = 1
	}
	traces := make([]coherence.CoreTrace, n)
	for c := 0; c < n; c++ {
		core := c
		var lastFD int64
		traces[core] = captureOps(k.Memory(), []func(){
			func() {
				r := k.Exec(core, kernel.Call{Op: "open", Args: map[string]int64{"fname": int64(core), "anyfd": af}})
				lastFD = r.Code
			},
			func() {
				k.Exec(core, kernel.Call{Op: "close", Args: map[string]int64{"fd": lastFD}})
			},
		})
	}
	res := coherence.Simulate(traces, coherence.Opts{})
	// Each open+close is two ops in the trace; report opens per Mcycle.
	return res.PerCorePerCycle() / 2 * 1e6
}

// mailbench reproduces Figure 7(c): n cores run the full mail pipeline with
// regular or commutative APIs; throughput is messages per Mcycle per core.
func mailbench(commutative bool, cores []int) curve {
	name := "Regular APIs"
	if commutative {
		name = "Commutative APIs"
	}
	c := curve{Name: name, Cores: cores}
	for _, n := range cores {
		c.PerSec = append(c.PerSec, mailbenchAt(commutative, n))
	}
	return c
}

func mailbenchAt(commutative bool, n int) float64 {
	s := mail.NewServer(mail.Config{Commutative: commutative})
	// Warm up each core once (builds per-core files and maps), then
	// capture two pipeline iterations per core.
	for c := 0; c < n; c++ {
		if err := s.DeliverOne(c); err != nil {
			panic(err)
		}
	}
	traces := make([]coherence.CoreTrace, n)
	for c := 0; c < n; c++ {
		core := c
		traces[core] = captureOps(s.Memory(), []func(){
			func() {
				if err := s.DeliverOne(core); err != nil {
					panic(err)
				}
			},
			func() {
				if err := s.DeliverOne(core); err != nil {
					panic(err)
				}
			},
		})
	}
	res := coherence.Simulate(traces, coherence.Opts{Duration: 4_000_000})
	return res.PerCorePerCycle() * 1e6
}

// Figure7 writes the Figure 7 panel named which — "stat" (7a), "open" (7b)
// or "mail" (7c), or "all" for the three in turn — at the given core
// counts, each in 1..scale.NCores. It is what scalebench prints, and
// testdata/fig7.golden holds it at 1, 2 and 4 cores.
func Figure7(w io.Writer, which string, cores []int) error {
	for _, n := range cores {
		if n < 1 || n > scale.NCores {
			return fmt.Errorf("core count %d outside 1..%d", n, scale.NCores)
		}
	}
	panels := []string{which}
	if which == "all" {
		panels = []string{"stat", "open", "mail"}
	}
	for _, p := range panels {
		var out string
		switch p {
		case "stat":
			out = formatCurves("Figure 7(a): statbench (fstats/Mcycle/core)", []curve{
				statbench(statFstatx, cores),
				statbench(statShared, cores),
				statbench(statRefcache, cores),
			})
		case "open":
			out = formatCurves("Figure 7(b): openbench (opens/Mcycle/core)", []curve{
				openbench(true, cores),
				openbench(false, cores),
			})
		case "mail":
			out = formatCurves("Figure 7(c): mail server (messages/Mcycle/core)", []curve{
				mailbench(true, cores),
				mailbench(false, cores),
			})
		default:
			return fmt.Errorf("unknown benchmark %q", p)
		}
		if _, err := io.WriteString(w, out); err != nil {
			return err
		}
	}
	return nil
}

// formatCurves renders curves as an aligned table, one row per core count.
func formatCurves(title string, curves []curve) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n%-8s", title, "cores")
	for _, c := range curves {
		fmt.Fprintf(&b, "%24s", c.Name)
	}
	b.WriteByte('\n')
	for i, n := range curves[0].Cores {
		fmt.Fprintf(&b, "%-8d", n)
		for _, c := range curves {
			fmt.Fprintf(&b, "%24.2f", c.PerSec[i])
		}
		b.WriteByte('\n')
	}
	return b.String()
}
