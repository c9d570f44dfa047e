package kernel

import (
	"context"
	"errors"
	"fmt"
)

// Replayer checks batches of tests that share a Setup against one
// long-lived kernel instance, instead of building two fresh kernels per
// test the way the reference oracle (kerneltest.Check) does. The kernel is
// built once and each setup applied once per group; every test then runs
// its two calls once, traced, against mtrace snapshot/reset, which only
// undoes the handful of cells the test actually wrote.
//
// A Replayer outlives its batch: the sweep engine keeps one per kernel per
// worker and hands it every pair that worker runs, so a kernel is built a
// few times a sweep, not once per pair. What a group or a pair builds on
// demand (sv6's directory buckets, per-core counters, inodes with their
// link-count deltas and radix leaves, every key of an mtrace.Map), and what
// a setup builds for its descriptors, pipes and anonymous pages, stays
// built, reset to the state it was born in, for every later group and pair:
// a key the setup bound is absent again, and a cell holds its born value.
// A failed pair retires its sweep worker with all of its engines, this
// Replayer included, instead of handing it the next pair: a panic that cut
// a kernel call short may have left state outside the journal.
//
// A Replayer is not safe for concurrent use; each sweep worker and each
// Client.Check call has its own.
type Replayer struct {
	k Kernel
	// groups and index are CheckTests' grouping scratch, kept across calls.
	groups [][]int
	index  map[string]int
}

// NewReplayer builds the kernel once and opens its baseline snapshot.
func NewReplayer(fresh func() Kernel) *Replayer {
	k := fresh()
	k.Memory().Snapshot()
	return &Replayer{k: k, index: map[string]int{}}
}

// groupBySetup buckets the indices of tests by setup fingerprint,
// preserving first-appearance order: each group is a run of tests sharing
// one initial state, its first member's Setup. Tests generated by testgen
// carry a precomputed SetupID; tests from other sources (hand-built,
// decoded from the wire or a cache) are fingerprinted here. The result
// lives in r's scratch until the next call.
func (r *Replayer) groupBySetup(tests []TestCase) [][]int {
	clear(r.index)
	groups := r.groups[:0]
	for i := range tests {
		id := tests[i].SetupID
		if id == "" {
			id = tests[i].Setup.Fingerprint()
		}
		gi, ok := r.index[id]
		if !ok {
			gi = len(groups)
			r.index[id] = gi
			if gi < cap(groups) { // reuse the slice an earlier call left here
				groups = groups[:gi+1]
				groups[gi] = groups[gi][:0]
			} else {
				groups = append(groups, nil)
			}
		}
		groups[gi] = append(groups[gi], i)
	}
	r.groups = groups
	return groups
}

// MaxExtent bounds the rows of every setup table (whose keys Rows compares
// pairwise), every item count a setup can make a kernel build state for,
// and the magnitude of a call's arguments. No generated test comes near it
// (queues hold a few items); a request body or a cache entry can say 1<<40.
const MaxExtent = 64

// MaxFilePages bounds a POSIX file: its length is at most MaxFilePages
// pages, and its pages are indexed below it. sv6 reconciles a file's length
// by scanning that many presence cells, so the bound is the file-data
// layer's on every design: Admit refuses a setup past it, and a write that
// would create a page past it panics, which the Replayer reports as the
// test's error. Generated files are a few pages long.
const MaxFilePages = 8

// MaxFD and MaxPage are the specs' bounds on a process's descriptor table
// and address space, declared here, where both a spec and its kernels can
// read them (a spec package imports its kernels): the posix model's
// descriptors, and a lowest-FD allocation in package unix, are below MaxFD,
// and the posix and vm models' pages, and memvm's, below MaxPage.
const (
	MaxFD   = 3
	MaxPage = 3
)

// ErrInadmissible is what errors.Is finds in every error Admit returns,
// and in every refusal CheckTests reports: the test itself is at fault —
// whoever wrote it, not the pipeline.
var ErrInadmissible = errors.New("inadmissible test")

// Admit reports whether a Replayer may hand tc to a kernel: it validates
// what can be known about a test without its kernel. The test has a setup,
// which admits its own tables (Setup.Admit: within their bounds, each
// keyed row once — a kernel keeps the object it builds for a row by that
// key), and its calls name process 0 or 1 and arguments within MaxExtent.
// Whether the kernel runs the test's ops and setup is Kernel.Refuse's to
// say; the arguments an op reads are not checked, and CheckTests turns a
// kernel's panic over those into the test's error.
func Admit(tc *TestCase) error {
	var a Admission
	if tc.Setup == nil {
		a.refuse("no setup")
	} else if err := tc.Setup.Admit(); err != nil {
		a.refuse("%v", err)
	}
	for _, c := range tc.Calls {
		a.Proc("a call", c.Proc)
		for _, v := range c.Args {
			a.Within("call argument", -MaxExtent, v, MaxExtent)
		}
	}
	if a.why != "" {
		return fmt.Errorf("%w %s: %s", ErrInadmissible, tc.ID, a.why)
	}
	return nil
}

// Admission collects the first reason a test is refused: a check records
// its reason only while none is recorded. The checks allocate nothing
// unless they refuse.
type Admission struct{ why string }

// refuse records a reason.
func (a *Admission) refuse(format string, args ...any) {
	if a.why == "" {
		a.why = fmt.Sprintf(format, args...)
	}
}

// Proc refuses a process other than 0 and 1.
func (a *Admission) Proc(what string, p int) {
	if p != 0 && p != 1 {
		a.refuse("%s names process %d, not 0 or 1", what, p)
	}
}

// Within refuses v outside [lo, hi].
func (a *Admission) Within(what string, lo, v, hi int64) {
	if v < lo || v > hi {
		a.refuse("%s %d outside [%d, %d]", what, v, lo, hi)
	}
}

// Err returns the reason as an error, or nil.
func (a *Admission) Err() error {
	if a.why == "" {
		return nil
	}
	return errors.New(a.why)
}

// Rows refuses a table of more than MaxExtent rows, and then a row whose
// key an earlier row has. Call it after the rows' own checks, so that what
// those refuse keeps its reason.
func Rows[R any, K comparable](a *Admission, what string, rows []R, key func(R) K) {
	if len(rows) > MaxExtent {
		a.refuse("setup has %d %s rows, more than %d", len(rows), what, MaxExtent)
	}
	for i := 0; a.why == "" && i < len(rows); i++ {
		for _, r := range rows[:i] {
			if k := key(r); k == key(rows[i]) {
				a.refuse("setup names %s %v twice", what, k)
			}
		}
	}
}

// CheckTests is the CHECK replay loop, and the one place a test crosses
// into a kernel. Before it applies or executes anything it refuses, as
// ErrInadmissible, every test that Admit refuses or the kernel does not run
// (Kernel.Refuse), so a batch's setups are all of the kernel's type, within
// which fingerprints are exact. It then groups the tests by setup, replays
// every group in order, handing fn each result with the test's index in
// tests, and reports how many groups there were. A test no kernel call
// survives is an error naming the kernel and the test, and the Replayer
// stays usable. Cancellation is polled before each group and after each
// test; a cancelled loop returns the context's error, and whatever fn saw up
// to then is a truncation the caller must not present as a verdict.
func (r *Replayer) CheckTests(ctx context.Context, tests []TestCase, fn func(i int, res CheckResult)) (groups int, err error) {
	for i := range tests {
		if err := Admit(&tests[i]); err != nil {
			return 0, err
		}
		if err := r.k.Refuse(&tests[i]); err != nil {
			return 0, fmt.Errorf("%w %s: %v", ErrInadmissible, tests[i].ID, err)
		}
	}
	grouped := r.groupBySetup(tests)
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

// CheckGroup is CheckTests' inner step for a caller that has grouped its
// tests already and trusts them: it admits nothing. It applies setup once,
// then replays each test against it, resetting between replays; the
// per-test Setup field is not consulted. fn receives each result in order
// and returns false to stop early. It stays exported for bench/, whose
// kernel probe times groups one by one.
func (r *Replayer) CheckGroup(setup Setup, tests []TestCase, fn func(CheckResult) bool) error {
	all := make([]int, len(tests))
	for i := range all {
		all[i] = i
	}
	return r.checkGroup(setup, tests, all, func(_ int, res CheckResult) bool { return fn(res) })
}

// guard runs f, a call into the kernel on tc's behalf, and turns a panic out
// of it into tc's error: kernels validate no argument (see Kernel), so this
// is where one outside the spec surfaces.
func (r *Replayer) guard(tc *TestCase, f func()) (err error) {
	defer func() {
		if p := recover(); p != nil {
			r.k.Memory().Stop()
			err = fmt.Errorf("%s: test %s: %v", r.k.Name(), tc.ID, p)
		}
	}()
	f()
	return nil
}

// checkGroup applies setup once, then replays the tests at indices, which
// fn is told, against it. After the group — finished, stopped by fn or
// failed — the kernel is reset to its baseline (pristine) state, so groups
// with different setups run back to back on the same instance.
func (r *Replayer) checkGroup(setup Setup, tests []TestCase, indices []int, fn func(i int, res CheckResult) bool) error {
	if len(indices) == 0 {
		return nil
	}
	mem := r.k.Memory()
	err := r.guard(&tests[indices[0]], func() { r.k.Apply(setup) })
	mem.Snapshot()
	for n := 0; err == nil && n < len(indices); n++ {
		i := indices[n]
		var res CheckResult
		if err = r.guard(&tests[i], func() { res = r.replay(&tests[i]) }); err == nil && !fn(i, res) {
			break
		}
	}
	// Merge the group region into the baseline and roll everything —
	// setup included, partial or not — back to the pristine kernel.
	mem.Pop()
	mem.Reset()
	return err
}

// replay runs tc's two calls once, traced, from the current (post-setup)
// state and returns to it.
func (r *Replayer) replay(tc *TestCase) CheckResult {
	mem := r.k.Memory()
	mem.Start()
	r0 := r.k.Exec(0, tc.Calls[0])
	r1 := r.k.Exec(1, tc.Calls[1])
	mem.Stop()
	res := CheckResult{ConflictFree: mem.ConflictFree(), Conflicts: mem.Conflicts(), Res: [2]Result{r0, r1}}
	mem.Reset()
	return res
}
