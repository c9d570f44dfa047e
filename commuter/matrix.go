package commuter

import (
	"fmt"
	"maps"
	"slices"
	"strings"

	"repro/internal/spec"
)

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

// MatricesFromSweep converts a sweep result into one Figure 6 matrix per
// kernel, in the kernel order the sweep ran them.
func MatricesFromSweep(res *SweepResult) []Matrix {
	var ms []Matrix
	idx := map[string]int{}
	for _, p := range res.Pairs {
		for _, c := range p.Cells {
			i, ok := idx[c.Kernel]
			if !ok {
				i = len(ms)
				idx[c.Kernel] = i
				ms = append(ms, Matrix{Kernel: c.Kernel, Spec: res.Spec})
			}
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
	grid := make([][]string, len(names))
	for i := range grid {
		grid[i] = make([]string, len(names))
	}
	unknownPairs := 0
	for _, c := range m.Cells {
		// opOrder lists every op a cell names, so both are found.
		i, j := slices.Index(names, c.OpA), slices.Index(names, c.OpB)
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
	for _, n := range names {
		fmt.Fprintf(&b, "%6.5s", n)
	}
	b.WriteByte('\n')
	if unknownPairs > 0 {
		fmt.Fprintf(&b, "%d pair(s) hit the solver budget: their counts are lower bounds (\"?\" = unclassified)\n", unknownPairs)
	}
	return b.String()
}

// opOrder is the matrix's row order: the ops its cells name, in the spec's
// canonical order. Ops the local registry does not know — the whole
// matrix's when the spec is unknown, one op's when a Dial client reads a
// newer server's result — follow, sorted, so the matrix still renders and
// no known cell moves.
func opOrder(m Matrix) []string {
	specName := m.Spec
	if specName == "" {
		specName = "posix"
	}
	present := map[string]bool{}
	for _, c := range m.Cells {
		present[c.OpA], present[c.OpB] = true, true
	}
	var out []string
	if sp, err := spec.Lookup(specName); err == nil {
		for _, n := range spec.OpNames(sp) {
			if present[n] {
				out = append(out, n)
				delete(present, n)
			}
		}
	}
	return append(out, slices.Sorted(maps.Keys(present))...)
}
