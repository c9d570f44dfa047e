package kernel

import (
	"context"
	"fmt"
)

// Replayer checks batches of tests that share a Setup against one
// long-lived kernel instance, instead of building two fresh kernels per
// test the way the reference oracle (kerneltest.Check) does. The kernel is
// built once and each setup applied once per group; every test then runs
// against mtrace snapshot/reset, which only undoes the handful of cells
// the test actually wrote. Both execution orders replay on the same
// instance, so the commutativity comparison is also setup-shared.
//
// The engine builds one Replayer per pair per kernel, so construction is
// paid a few hundred times a sweep: kernels keep it to what no test can
// avoid and build the rest when a test first touches it (sv6's directory
// buckets, per-core counters and link-count deltas; see BenchmarkNewKernel).
//
// A Replayer is not safe for concurrent use; each CHECK stage (one pair on
// one kernel) and each Client.Check call builds its own.
type Replayer struct {
	k Kernel
}

// NewReplayer builds the kernel once and opens its baseline snapshot.
func NewReplayer(fresh func() Kernel) *Replayer {
	k := fresh()
	k.Memory().Snapshot()
	return &Replayer{k: k}
}

// groupBySetup buckets the indices of tests by setup fingerprint,
// preserving first-appearance order: each group is a run of tests sharing
// one initial state, its first member's Setup. Tests generated by testgen
// carry a precomputed SetupID; tests from other sources (hand-built,
// decoded from the wire or a cache) are fingerprinted here.
func groupBySetup(tests []TestCase) [][]int {
	var groups [][]int
	index := map[string]int{}
	for i := range tests {
		id := tests[i].SetupID
		if id == "" {
			id = tests[i].Setup.Fingerprint()
		}
		gi, ok := index[id]
		if !ok {
			gi = len(groups)
			index[id] = gi
			groups = append(groups, nil)
		}
		groups[gi] = append(groups[gi], i)
	}
	return groups
}

// CheckTests is the CHECK replay loop: it groups tests by setup and replays
// every group in order, handing fn each result with the test's index in
// tests, and reports how many setup groups there were. Cancellation is
// polled before each group and after each test (individual checks are
// short, so the poll granularity is the single test case); a cancelled
// loop returns the context's error, and whatever fn saw up to then is a
// truncation the caller must not present as a verdict.
func (r *Replayer) CheckTests(ctx context.Context, tests []TestCase, fn func(i int, res CheckResult)) (groups int, err error) {
	grouped := groupBySetup(tests)
	for _, g := range grouped {
		if err := ctx.Err(); err != nil {
			return len(grouped), err
		}
		err := r.checkGroup(tests[g[0]].Setup, tests, g, func(i int, res CheckResult) bool {
			fn(i, res)
			return ctx.Err() == nil
		})
		if err != nil {
			return len(grouped), err
		}
	}
	return len(grouped), ctx.Err()
}

// CheckGroup applies setup once, then replays each test against it, both
// orders, resetting between replays. Every test in tests must share the
// setup (same Setup.Fingerprint); the per-test Setup field is not
// consulted. fn receives each result in order and returns false to stop
// early. After the group the kernel is reset to its baseline (pristine)
// state, so groups with different setups run back to back on the same
// instance.
func (r *Replayer) CheckGroup(setup Setup, tests []TestCase, fn func(CheckResult) bool) error {
	all := make([]int, len(tests))
	for i := range all {
		all[i] = i
	}
	return r.checkGroup(setup, tests, all, func(_ int, res CheckResult) bool { return fn(res) })
}

// checkGroup is CheckGroup over the tests at indices, which fn is told.
func (r *Replayer) checkGroup(setup Setup, tests []TestCase, indices []int, fn func(i int, res CheckResult) bool) error {
	k := r.k
	mem := k.Memory()
	if err := k.Apply(setup); err != nil {
		// Undo the partial setup so the instance stays reusable.
		mem.Reset()
		id := ""
		if len(indices) > 0 {
			id = tests[indices[0]].ID
		}
		return fmt.Errorf("%s: setup %s: %w", k.Name(), id, err)
	}
	mem.Snapshot()
	for _, i := range indices {
		tc := &tests[i]
		mem.Start()
		r0 := k.Exec(0, tc.Calls[0])
		r1 := k.Exec(1, tc.Calls[1])
		mem.Stop()
		free := mem.ConflictFree()
		conflicts := mem.Conflicts()
		mem.Reset()

		// Opposite order for the commutativity check. When the traced run
		// was conflict-free the re-execution is provably redundant: every
		// piece of kernel state lives in traced cells, the journal reset
		// restores the exact post-setup state, and conflict-freedom means
		// the two calls touched disjoint cells (read-read sharing aside) —
		// so running them in the opposite order from the same state cannot
		// change either result. Reuse the traced results and skip the
		// second pass; it was ~half of all replay work, and the vast
		// majority of generated tests are conflict-free.
		var s0, s1 Result
		if free {
			s0, s1 = r0, r1
		} else {
			// Untraced (no Start), but still journaled, so the next test
			// replays from the same post-setup state.
			s1 = k.Exec(1, tc.Calls[1])
			s0 = k.Exec(0, tc.Calls[0])
			mem.Reset()
		}

		ok := fn(i, CheckResult{
			Test:         *tc,
			ConflictFree: free,
			Conflicts:    conflicts,
			Res:          [2]Result{r0, r1},
			Commuted:     resultsCommute(r0, s0) && resultsCommute(r1, s1),
			ResSwapped:   [2]Result{s0, s1},
		})
		if !ok {
			break
		}
	}
	// Merge the group region into the baseline and roll everything —
	// setup included — back to the pristine kernel.
	mem.Pop()
	mem.Reset()
	return nil
}

// resultsCommute compares one call's results across the two execution
// orders. The specification permits nondeterministic outputs to differ, but
// both implementations here make order-independent choices (per-core
// allocation in sv6; the monokernel's order-dependent lowest-FD rule is
// precisely one of the non-commutative behaviors the evaluation surfaces),
// so plain equality is the right check.
func resultsCommute(a, b Result) bool { return a == b }
