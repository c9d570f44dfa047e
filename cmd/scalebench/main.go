// Command scalebench regenerates the paper's Figure 7 throughput curves on
// the MESI coherence simulator:
//
//	scalebench stat    # Figure 7(a): statbench, three st_nlink variants
//	scalebench open    # Figure 7(b): openbench, any-FD vs lowest-FD
//	scalebench mail    # Figure 7(c): mail server, commutative vs regular
//	scalebench all     # the three Figure 7 benchmarks
//
// Values are operations per million simulated cycles per core; the paper's
// absolute axes differ (real hardware), but the shapes — who scales, who
// collapses, and where — are the reproduction target.
//
// The pipeline's own performance (sweep wall clock, allocations, per-layer
// costs) is measured by the benchmark under bench/, not here.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/eval"
)

func main() {
	coresFlag := flag.String("cores", "", "comma-separated core counts (default 1,10,...,80)")
	flag.Parse()
	cores := eval.DefaultCores
	if *coresFlag != "" {
		cores = nil
		for _, s := range strings.Split(*coresFlag, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil {
				fmt.Fprintf(os.Stderr, "scalebench: bad core count %q\n", s)
				os.Exit(2)
			}
			cores = append(cores, n)
		}
	}
	which := "all"
	if flag.NArg() > 1 {
		fmt.Fprintf(os.Stderr, "scalebench: unexpected arguments %s; name one benchmark (stat, open, mail or all)\n",
			strings.Join(flag.Args()[1:], " "))
		os.Exit(2)
	}
	if flag.NArg() > 0 {
		which = flag.Arg(0)
	}
	if err := eval.Figure7(os.Stdout, which, cores); err != nil {
		fmt.Fprintf(os.Stderr, "scalebench: %v\n", err)
		os.Exit(2)
	}
}
