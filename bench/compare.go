package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
	"text/tabwriter"
)

// quartiles returns the first and third quartile of values the way
// Python's statistics.quantiles(values, n=4) does, which is how the
// benchmark driver measures spread. It needs at least two values.
func quartiles(values []float64) (q1, q3 float64) {
	x := slices.Clone(values)
	sort.Float64s(x)
	n := len(x)
	cut := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (x[j-1]*(4-delta) + x[j]*delta) / 4
	}
	return cut(1), cut(3)
}

// spread is the distance between the quartiles as a share of the median:
// 0 for a single run.
func spread(values []float64) float64 {
	if len(values) < 2 {
		return 0
	}
	q1, q3 := quartiles(values)
	return ratio(q3-q1, median(values))
}

// judge compares the runs of one metric on one workload. A metric whose
// spread on either side is wider than its bound is unresolved, not
// unchanged, unless every run of b reads better than every run of a.
func judge(def metricDef, a, b []float64) string {
	if def.Bound == 0 {
		return "-" // a per-layer metric: no bound to hold it to
	}
	lower := def.Better == "lower"
	if max(spread(a), spread(b)) > def.Bound {
		if lower && slices.Max(b) < slices.Min(a) || !lower && slices.Min(b) > slices.Max(a) {
			return "ok"
		}
		return "unresolved"
	}
	worse := ratio(median(b)-median(a), median(a))
	if !lower {
		worse = -worse
	}
	if worse > def.Bound {
		return "worse"
	}
	return "ok"
}

func readResults(path string) (resultsFile, error) {
	var f resultsFile
	data, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(data, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

// metricValues collects one metric's value from every run that has it.
func metricValues(runs []runRecord, name string) []float64 {
	var out []float64
	for _, r := range runs {
		if m, ok := r.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

// cmdCompare prints one row per (workload, metric) both files hold: the
// two medians, their ratio with its base, both spreads, the bound and the
// verdict. It is an error if any row is worse or unresolved.
func cmdCompare(args []string, w io.Writer) error {
	if len(args) != 2 {
		return fmt.Errorf("compare wants two results files: the base, then the one to judge")
	}
	a, err := readResults(args[0])
	if err != nil {
		return err
	}
	b, err := readResults(args[1])
	if err != nil {
		return err
	}
	defs := append(slices.Clone(endToEndDefs), perLayerDefs...)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "workload\tmetric\tunit\tA median (n)\tB median (n)\tB/A\tspread A\tspread B\tbound\tverdict\n")
	bad := 0
	for _, wl := range workloadNames() {
		for _, def := range defs {
			va, vb := metricValues(a.Workloads[wl], def.Name), metricValues(b.Workloads[wl], def.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			verdict := judge(def, va, vb)
			if verdict == "worse" || verdict == "unresolved" {
				bad++
			}
			bound := "-"
			if def.Bound != 0 {
				bound = fmt.Sprintf("%.2f %s", def.Bound, def.Better)
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.4f (%d)\t%.4f (%d)\t%.3fx of %.4f\t%.3f\t%.3f\t%s\t%s\n",
				wl, def.Name, def.Unit, median(va), len(va), median(vb), len(vb),
				ratio(median(vb), median(va)), median(va), spread(va), spread(vb), bound, verdict)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if bad != 0 {
		return fmt.Errorf("%d rows are worse or unresolved", bad)
	}
	return nil
}
