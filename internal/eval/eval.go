// Package eval regenerates the paper's evaluation: the Figure 6
// conflict-freedom matrices (COMMUTER tests run against both kernels) and
// the Figure 7 throughput curves (statbench, openbench, mail server) via
// the MESI coherence simulator.
package eval

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/coherence"
	"repro/internal/kernel"
	"repro/internal/kernel/svsix"
	"repro/internal/mail"
	_ "repro/internal/model" // registers the "posix" spec
	"repro/internal/mtrace"
	"repro/internal/spec"
	"repro/internal/sweep"
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
	k := svsix.NewOpts(svsix.Opts{SharedLinkCount: mode == StatShared})
	setup := kernel.Setup{
		Files:  []kernel.SetupFile{{Name: "f0", Inum: 1}},
		Inodes: []kernel.SetupInode{{Inum: 1, Len: 1, Pages: map[int64]int64{0: 1}}},
	}
	if err := k.Apply(setup); err != nil {
		panic(err)
	}
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
	k := svsix.New()
	var setup kernel.Setup
	for c := 0; c < n; c++ {
		setup.Files = append(setup.Files, kernel.SetupFile{Name: kernel.Fname(int64(c)), Inum: int64(c + 1)})
		setup.Inodes = append(setup.Inodes, kernel.SetupInode{Inum: int64(c + 1)})
	}
	if err := k.Apply(setup); err != nil {
		panic(err)
	}
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

// MatrixCell is one Figure 6 cell: results of all generated tests for one
// operation pair on one kernel.
type MatrixCell struct {
	OpA, OpB  string
	Total     int
	Conflicts int
	// Unknown counts analyzer paths of the pair whose classification hit
	// the solver budget: the cell's counts are then lower bounds, and
	// FormatMatrix renders a pair with no tests and a nonzero Unknown as
	// "?" rather than the "-" that reads as "never commutes".
	Unknown int
}

// Matrix is a Figure 6 half-matrix for one kernel.
type Matrix struct {
	Kernel string
	// Spec names the interface specification the matrix covers; it fixes
	// the row/column order ("" falls back to posix for pre-spec callers).
	Spec  string
	Cells []MatrixCell
}

// Totals sums tests and non-conflict-free tests.
func (m Matrix) Totals() (total, conflicted int) {
	for _, c := range m.Cells {
		total += c.Total
		conflicted += c.Conflicts
	}
	return
}

// ImplSpecs resolves implementation names against one spec's bindings,
// returning them as sweep kernel specs; with no names it returns all of
// the spec's implementations in their default order. Names are
// deduplicated preserving first-appearance order (a repeated name must
// not double-count every matrix cell); unknown names error with the
// spec's known implementations.
func ImplSpecs(sp spec.Spec, names ...string) ([]sweep.KernelSpec, error) {
	impls := sp.Impls()
	byName := make(map[string]spec.Impl, len(impls))
	known := make([]string, len(impls))
	for i, im := range impls {
		byName[im.Name] = im
		known[i] = im.Name
	}
	if len(names) == 0 {
		names = known
	}
	out := make([]sweep.KernelSpec, 0, len(names))
	seen := map[string]bool{}
	for _, n := range names {
		im, ok := byName[n]
		if !ok {
			return nil, fmt.Errorf("spec %s has no implementation %q (known: %s)",
				sp.Name(), n, strings.Join(known, ", "))
		}
		if seen[n] {
			continue
		}
		seen[n] = true
		out = append(out, sweep.KernelSpec{Name: im.Name, New: im.New})
	}
	return out, nil
}

// MatricesFromSweep converts a sweep result into one Figure 6 matrix per
// kernel, in the kernel order the sweep ran them.
func MatricesFromSweep(res *sweep.Result) []Matrix {
	var order []string
	idx := map[string]int{}
	for _, p := range res.Pairs {
		for _, c := range p.Cells {
			if _, ok := idx[c.Kernel]; !ok {
				idx[c.Kernel] = len(order)
				order = append(order, c.Kernel)
			}
		}
	}
	ms := make([]Matrix, len(order))
	for i, n := range order {
		ms[i].Kernel = n
		ms[i].Spec = res.Spec
	}
	for _, p := range res.Pairs {
		for _, c := range p.Cells {
			i := idx[c.Kernel]
			ms[i].Cells = append(ms[i].Cells, MatrixCell{
				OpA: p.OpA, OpB: p.OpB, Total: c.Total, Conflicts: c.Conflicts,
				Unknown: p.Unknown,
			})
		}
	}
	return ms
}

// FormatMatrix renders a Figure 6-style half-matrix: the number of
// non-conflict-free tests per pair ("." for all-scalable cells). A pair
// with no tests renders as "-" — unless its analysis hit the solver
// budget, which renders as "?": such a pair is unclassified, not proven
// non-commutative, and a footer calls the truncation out.
func FormatMatrix(m Matrix) string {
	names := opOrder(m)
	idx := map[string]int{}
	for i, n := range names {
		idx[n] = i
	}
	grid := make([][]string, len(names))
	for i := range grid {
		grid[i] = make([]string, len(names))
	}
	unknownPairs := 0
	for _, c := range m.Cells {
		i, j := idx[c.OpA], idx[c.OpB]
		if i < j {
			i, j = j, i
		}
		s := "."
		if c.Conflicts > 0 {
			s = fmt.Sprint(c.Conflicts)
		}
		if c.Total == 0 {
			s = "-"
			if c.Unknown > 0 {
				s = "?"
			}
		}
		if c.Unknown > 0 {
			unknownPairs++
		}
		grid[i][j] = s
	}
	total, conf := m.Totals()
	var b strings.Builder
	fmt.Fprintf(&b, "%s (%d of %d tests conflict-free)\n", m.Kernel, total-conf, total)
	for i, row := range grid {
		fmt.Fprintf(&b, "%-10s", names[i])
		for j := 0; j <= i; j++ {
			fmt.Fprintf(&b, "%6s", row[j])
		}
		b.WriteByte('\n')
	}
	b.WriteString(strings.Repeat(" ", 10))
	for j := range names {
		fmt.Fprintf(&b, "%6s", abbrev(names[j]))
	}
	b.WriteByte('\n')
	if unknownPairs > 0 {
		fmt.Fprintf(&b, "%d pair(s) hit the solver budget: their counts are lower bounds (\"?\" = unclassified)\n", unknownPairs)
	}
	return b.String()
}

func opOrder(m Matrix) []string {
	specName := m.Spec
	if specName == "" {
		specName = "posix"
	}
	var want []string
	if sp, err := spec.Lookup(specName); err == nil {
		want = spec.OpNames(sp)
	} else {
		// Unknown spec: fall back to the cells' own (sorted) op names so
		// the matrix still renders.
		seen := map[string]bool{}
		for _, c := range m.Cells {
			for _, n := range []string{c.OpA, c.OpB} {
				if !seen[n] {
					seen[n] = true
					want = append(want, n)
				}
			}
		}
		sort.Strings(want)
	}
	present := map[string]bool{}
	for _, c := range m.Cells {
		present[c.OpA] = true
		present[c.OpB] = true
	}
	var out []string
	for _, n := range want {
		if present[n] {
			out = append(out, n)
		}
	}
	return out
}

func abbrev(s string) string {
	if len(s) > 5 {
		return s[:5]
	}
	return s
}
