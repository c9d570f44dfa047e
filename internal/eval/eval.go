// Package eval regenerates the paper's Figure 7 throughput curves
// (statbench, openbench, mail server) on the MESI coherence simulator. The
// Figure 6 conflict-freedom matrices are package commuter's: a rendering
// of a sweep result, beside the sweep.
package eval

import (
	"fmt"
	"strings"

	"repro/internal/coherence"
	"repro/internal/kernel"
	"repro/internal/kernel/unix"
	"repro/internal/mail"
	"repro/internal/mtrace"
)

// CaptureOps records the cache-line access sequences of a series of
// operation thunks executed on the given traced memory, one coherence.Op
// per thunk.
func CaptureOps(mem *mtrace.Memory, thunks []func()) coherence.CoreTrace {
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

// Curve is one throughput-vs-cores series.
type Curve struct {
	Name   string
	Cores  []int
	PerSec []float64 // per-core throughput (simulated ops/Mcycle/core)
}

// DefaultCores is the x-axis of the Figure 7 plots.
var DefaultCores = []int{1, 10, 20, 30, 40, 50, 60, 70, 80}

// StatbenchMode selects the statbench variant (Figure 7a).
type StatbenchMode int

const (
	// StatFstatx omits st_nlink (commutative with link/unlink).
	StatFstatx StatbenchMode = iota
	// StatRefcache returns st_nlink from a Refcache counter.
	StatRefcache
	// StatShared returns st_nlink from a single shared counter.
	StatShared
)

func (m StatbenchMode) String() string {
	switch m {
	case StatFstatx:
		return "Without st_nlink"
	case StatRefcache:
		return "With Refcache st_nlink"
	default:
		return "With shared st_nlink"
	}
}

// Statbench reproduces Figure 7(a): n/2 cores fstat one file while n/2
// cores link/unlink it. Returns fstats per Mcycle per fstat-core.
func Statbench(mode StatbenchMode, cores []int) Curve {
	c := Curve{Name: mode.String(), Cores: cores}
	for _, n := range cores {
		c.PerSec = append(c.PerSec, statbenchAt(mode, n))
	}
	return c
}

func statbenchAt(mode StatbenchMode, n int) float64 {
	d := unix.SV6
	if mode == StatShared {
		d = unix.SV6SharedLinkCount
	}
	k := unix.New(d)
	setup := kernel.Setup{
		Files:  []kernel.SetupFile{{Name: "f0", Inum: 1}},
		Inodes: []kernel.SetupInode{{Inum: 1, Len: 1, Pages: map[int64]int64{0: 1}}},
	}
	k.Apply(setup)
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
			if mode == StatFstatx {
				args["nolink"] = 1
			}
			traces[core] = CaptureOps(k.Memory(), []func(){
				func() { k.Exec(core, kernel.Call{Op: "fstat", Args: args}) },
			})
		} else {
			// link/unlink loop: link f0 to a core-unique name, unlink it.
			nm := int64(1000 + core)
			traces[core] = CaptureOps(k.Memory(), []func(){
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

// Openbench reproduces Figure 7(b): n cores open and close per-core files,
// with either any-FD or lowest-FD allocation.
func Openbench(anyFD bool, cores []int) Curve {
	name := "Lowest FD"
	if anyFD {
		name = "Any FD"
	}
	c := Curve{Name: name, Cores: cores}
	for _, n := range cores {
		c.PerSec = append(c.PerSec, openbenchAt(anyFD, n))
	}
	return c
}

func openbenchAt(anyFD bool, n int) float64 {
	k := unix.New(unix.SV6)
	var setup kernel.Setup
	for c := 0; c < n; c++ {
		setup.Files = append(setup.Files, kernel.SetupFile{Name: kernel.Fname(int64(c)), Inum: int64(c + 1)})
		setup.Inodes = append(setup.Inodes, kernel.SetupInode{Inum: int64(c + 1)})
	}
	k.Apply(setup)
	var af int64
	if anyFD {
		af = 1
	}
	traces := make([]coherence.CoreTrace, n)
	for c := 0; c < n; c++ {
		core := c
		var lastFD int64
		traces[core] = CaptureOps(k.Memory(), []func(){
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
	return float64(res.Total()) / 2 / float64(res.Duration) * 1e6 / float64(n)
}

// Mailbench reproduces Figure 7(c): n cores run the full mail pipeline with
// regular or commutative APIs; throughput is messages per Mcycle per core.
func Mailbench(commutative bool, cores []int) Curve {
	name := "Regular APIs"
	if commutative {
		name = "Commutative APIs"
	}
	c := Curve{Name: name, Cores: cores}
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
		traces[core] = CaptureOps(s.Memory(), []func(){
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
	return float64(res.Total()) / float64(res.Duration) * 1e6 / float64(n)
}

// FormatCurves renders curves as an aligned table, one row per core count.
func FormatCurves(title string, curves []Curve) string {
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
