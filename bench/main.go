// Command bench is the repository's benchmark: two sweep workloads
// measured end to end, and a traced run that measures every layer under
// them. README.md describes the workloads and the metrics; BENCHMARK.json at
// the root of the repository is the contract later changes are judged by.
//
//	bench --workload W --seed N --seconds S --trace 0|1   one run, one result line
//	bench run   [-seed N] [-runs R] [-workload W] [-json F]   every workload, untraced
//	bench trace [-seed N] [-runs R] [-workload W] [-json F]   every workload, traced
//	bench compare A.json B.json                           two result files, row by row
//	bench expected                                        print testdata/expected.json afresh
//	bench manifest                                        print BENCHMARK.json
//	bench ref                                             the reference child of an untraced run (ref.go)
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	code := run(ctx, os.Args[1:])
	stop()
	os.Exit(code)
}

func run(ctx context.Context, args []string) int {
	var (
		err  error
		data []byte
		sub  string
	)
	if len(args) > 0 {
		sub = args[0]
	}
	switch sub {
	case "run":
		err = cmdRun(ctx, args[1:], false)
	case "trace":
		err = cmdRun(ctx, args[1:], true)
	case "compare":
		err = cmdCompare(args[1:], os.Stdout)
	case "ref":
		err = cmdRef(os.Stdin, os.Stdout)
	case "expected":
		data, err = computeExpected(ctx)
	case "manifest":
		data, err = manifest()
	default:
		err = cmdWorkload(ctx, args)
	}
	if err == nil && data != nil {
		_, err = os.Stdout.Write(data)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	return 0
}

// cmdWorkload is the form the benchmark driver calls: one workload, one
// process, the result as the last line of standard output.
func cmdWorkload(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		o     runOptions
		trace int
	)
	fs.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&o.seed, "seed", 1, "seed of the generated inputs")
	fs.IntVar(&o.seconds, "seconds", runSeconds, "how long to measure")
	fs.IntVar(&trace, "trace", 0, "1 records spans and reports the per-layer metrics instead of the end-to-end ones")
	fs.StringVar(&o.out, "out", filepath.Join("bench", "out"), "directory for traces and scratch caches")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 || o.workload == "" {
		return fmt.Errorf("want --workload NAME [--seed N] [--seconds S] [--trace 0|1], or one of: run, trace, compare, expected, manifest")
	}
	if o.seconds < 1 || trace < 0 || trace > 1 {
		return fmt.Errorf("--seconds must be at least 1 and --trace 0 or 1")
	}
	o.trace = trace == 1
	res, err := runWorkload(ctx, o, os.Stdout)
	if err != nil {
		return err
	}
	return emit(os.Stdout, res)
}

// runRecord is one child run in a results file.
type runRecord struct {
	Seed int64 `json:"seed"`
	result
}

// resultsFile is what `bench run` and `bench trace` write and `bench
// compare` reads.
type resultsFile struct {
	Commit     string                 `json:"commit"`
	GoVersion  string                 `json:"go_version"`
	NProc      int                    `json:"nproc"`
	GoMaxProcs int                    `json:"gomaxprocs"`
	Seed       int64                  `json:"seed"`
	Seconds    int                    `json:"seconds"`
	Traced     bool                   `json:"traced"`
	Started    time.Time              `json:"started"`
	Workloads  map[string][]runRecord `json:"workloads"`
}

// cmdRun runs every workload in a child process of its own, -runs times on
// consecutive seeds, prints each run's metrics and writes them all to one
// results file. Any failed or incorrect run is an error.
func cmdRun(ctx context.Context, args []string, traced bool) error {
	fs := flag.NewFlagSet("bench run", flag.ContinueOnError)
	seed := fs.Int64("seed", 1, "seed of the first run of each workload")
	runs := fs.Int("runs", 1, "runs per workload, on consecutive seeds")
	seconds := fs.Int("seconds", runSeconds, "how long each run measures")
	only := fs.String("workload", "", "run only this workload")
	out := fs.String("out", filepath.Join("bench", "out"), "directory for results, traces and scratch caches")
	jsonPath := fs.String("json", "", "results file (default OUT/results.json, or OUT/trace-results.json)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 || *runs < 1 {
		return fmt.Errorf("run takes flags only, and -runs at least 1")
	}
	if *jsonPath == "" {
		*jsonPath = filepath.Join(*out, map[bool]string{false: "results.json", true: "trace-results.json"}[traced])
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	file := resultsFile{
		Commit: gitCommit(ctx), GoVersion: runtime.Version(), NProc: runtime.NumCPU(), GoMaxProcs: benchProcs,
		Seed: *seed, Seconds: *seconds, Traced: traced, Started: time.Now().UTC(), Workloads: map[string][]runRecord{},
	}
	bad := 0
	for _, w := range workloadNames() {
		if *only != "" && *only != w {
			continue
		}
		for r := range *runs {
			s := *seed + int64(r)
			fmt.Printf("== %s seed %d\n", w, s)
			cmd := exec.CommandContext(ctx, self, "--workload", w, "--seed", fmt.Sprint(s), "--seconds", fmt.Sprint(*seconds),
				"--trace", map[bool]string{false: "0", true: "1"}[traced], "--out", *out)
			var stdout bytes.Buffer
			cmd.Stdout, cmd.Stderr = io.MultiWriter(os.Stdout, &stdout), os.Stderr
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("%s seed %d: %w", w, s, err)
			}
			lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
			rec := runRecord{Seed: s}
			if err := json.Unmarshal(lines[len(lines)-1], &rec.result); err != nil {
				return fmt.Errorf("%s seed %d: last line is not a result: %w", w, s, err)
			}
			if !rec.Correct || rec.Failed != 0 {
				bad++
			}
			file.Workloads[w] = append(file.Workloads[w], rec)
		}
	}
	if len(file.Workloads) == 0 {
		return fmt.Errorf("unknown workload %q (known: %s)", *only, strings.Join(workloadNames(), ", "))
	}
	data, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(*jsonPath), 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(*jsonPath, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Println("results:", *jsonPath)
	if bad != 0 {
		return fmt.Errorf("%d runs had failed iterations or wrong matrices", bad)
	}
	return nil
}

// gitCommit names the commit being measured, when there is a repository
// to ask.
func gitCommit(ctx context.Context) string {
	out, err := exec.CommandContext(ctx, "git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
