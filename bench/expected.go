package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"repro/commuter"
)

// cell is one kernel's verdict for one pair: tests run, tests that were
// not conflict-free.
type cell struct {
	Total     int `json:"total"`
	Conflicts int `json:"conflicts"`
}

// matrices maps spec → kernel → "opA/opB" → cell.
type matrices map[string]map[string]map[string]cell

//go:embed testdata/expected.json
var expectedJSON []byte

func loadExpected() (matrices, error) {
	var m matrices
	if err := json.Unmarshal(expectedJSON, &m); err != nil {
		return nil, fmt.Errorf("testdata/expected.json: %w", err)
	}
	return m, nil
}

// verify checks a sweep of ops (canonical order) on kernels against the
// expected cells and returns the number of verdicts (Σ cell totals) it
// delivered. Any missing, extra or differing cell is an error.
func (m matrices) verify(res *commuter.SweepResult, ops, kernels []string) (int, error) {
	want := len(ops) * (len(ops) + 1) / 2
	if len(res.Pairs) != want {
		return 0, fmt.Errorf("%s: got %d pairs, want %d", res.Spec, len(res.Pairs), want)
	}
	in := make(map[string]bool, len(ops))
	for _, o := range ops {
		in[o] = true
	}
	verdicts := 0
	for _, p := range res.Pairs {
		if !in[p.OpA] || !in[p.OpB] {
			return 0, fmt.Errorf("%s %s: pair outside the requested ops", res.Spec, p.Pair())
		}
		if p.Unknown != 0 {
			return 0, fmt.Errorf("%s %s: %d unknown paths", res.Spec, p.Pair(), p.Unknown)
		}
		if len(p.Cells) != len(kernels) {
			return 0, fmt.Errorf("%s %s: got %d cells, want %d", res.Spec, p.Pair(), len(p.Cells), len(kernels))
		}
		for i, c := range p.Cells {
			exp, ok := m[res.Spec][c.Kernel][p.Pair()]
			got := cell{c.Total, c.Conflicts}
			if c.Kernel != kernels[i] || !ok || got != exp {
				return 0, fmt.Errorf("%s %s on %s: got %+v, want %+v on %s", res.Spec, p.Pair(), c.Kernel, got, exp, kernels[i])
			}
			verdicts += c.Total
		}
	}
	return verdicts, nil
}

// computeExpected sweeps every spec in full and renders the matrices in
// the format of testdata/expected.json: one pair per line, sorted.
func computeExpected(ctx context.Context) ([]byte, error) {
	c := commuter.Local()
	specs, err := c.Specs(ctx)
	if err != nil {
		return nil, err
	}
	var b strings.Builder
	b.WriteString("{\n")
	for si, sp := range specs {
		res, err := c.Sweep(ctx, commuter.WithSpec(sp.Name), commuter.WithOpSet("all"))
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(&b, "  %q: {\n", sp.Name)
		for ki, k := range sp.Impls {
			var lines []string
			for _, p := range res.Pairs {
				if p.Unknown != 0 || p.Cells[ki].Kernel != k {
					return nil, fmt.Errorf("%s %s: %d unknown paths, cell %d is of %s, want %s", sp.Name, p.Pair(), p.Unknown, ki, p.Cells[ki].Kernel, k)
				}
				lines = append(lines, fmt.Sprintf("      %q: {\"total\": %d, \"conflicts\": %d}", p.Pair(), p.Cells[ki].Total, p.Cells[ki].Conflicts))
			}
			sort.Strings(lines)
			fmt.Fprintf(&b, "    %q: {\n%s\n    }%s\n", k, strings.Join(lines, ",\n"), comma(ki, len(sp.Impls)))
		}
		fmt.Fprintf(&b, "  }%s\n", comma(si, len(specs)))
	}
	b.WriteString("}\n")
	return []byte(b.String()), nil
}

func comma(i, n int) string {
	if i < n-1 {
		return ","
	}
	return ""
}
