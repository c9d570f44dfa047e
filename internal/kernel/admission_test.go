package kernel_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/kernel"
	"repro/internal/kernel/kerneltest"
	"repro/internal/kernel/memkv"
	"repro/internal/kernel/memq"
	"repro/internal/kernel/memvm"
	"repro/internal/kernel/unix"
	_ "repro/internal/kvspec"    // registers the "kv" spec
	_ "repro/internal/model"     // registers the "posix" spec
	_ "repro/internal/queuespec" // registers the "queue" spec
	"repro/internal/spec"
	"repro/internal/sweep"
	_ "repro/internal/vmspec" // registers the "vm" spec
)

// hostileEdit makes a valid test of spec ("" for any spec) one the
// Replayer must refuse.
type hostileEdit struct {
	spec, name string
	edit       func(*kernel.TestCase)
}

// hostile lists the tests no TESTGEN run produces and a request body or a
// cache entry can. All but write-past-bound are refused before the kernel
// runs anything, by Admit or by the kernel's Refuse (unknown-op, and the
// foreign-setup rows that init adds); a write past the file bound gets as
// far as the kernel's panic.
var hostile = []hostileEdit{
	{"", "unknown-op", func(tc *kernel.TestCase) { tc.Calls[1].Op = "frob" }},
	{"", "call-proc", func(tc *kernel.TestCase) { tc.Calls[0].Proc = 5 }},
	{"", "argument", func(tc *kernel.TestCase) { tc.Calls[0].Args = map[string]int64{"off": 1 << 60, "page": 1 << 60} }},
	{"", "no-setup", func(tc *kernel.TestCase) { tc.Setup = nil }},
	{"posix", "fd-proc", func(tc *kernel.TestCase) {
		s := posix(tc)
		s.FDs = append(s.FDs, unix.SetupFD{Proc: 5, FD: 1, Inum: 1})
	}},
	{"posix", "vma-proc", func(tc *kernel.TestCase) {
		s := posix(tc)
		s.VMAs = append(s.VMAs, unix.SetupVMA{Proc: -1, Anon: true})
	}},
	{"posix", "name-twice", func(tc *kernel.TestCase) {
		s := posix(tc)
		s.Files = append(s.Files, unix.SetupFile{Name: 7, Inum: 1}, unix.SetupFile{Name: 7, Inum: 2})
	}},
	{"posix", "inode-twice", func(tc *kernel.TestCase) {
		s := posix(tc)
		s.Inodes = append(s.Inodes, unix.SetupInode{Inum: 9, Len: 1}, unix.SetupInode{Inum: 9, Len: 2})
	}},
	{"posix", "inodes", func(tc *kernel.TestCase) {
		s := posix(tc)
		for i := range kernel.MaxExtent + 1 {
			s.Inodes = append(s.Inodes, unix.SetupInode{Inum: int64(100 + i)})
		}
	}},
	{"posix", "fd-twice", func(tc *kernel.TestCase) {
		s := posix(tc)
		s.FDs = append(s.FDs, unix.SetupFD{FD: 9, Inum: 1}, unix.SetupFD{FD: 9, Inum: 2})
	}},
	{"posix", "pipe-twice", func(tc *kernel.TestCase) {
		s := posix(tc)
		s.Pipes = append(s.Pipes, unix.SetupPipe{ID: 9}, unix.SetupPipe{ID: 9, Items: []int64{1}})
	}},
	{"posix", "page-twice", func(tc *kernel.TestCase) {
		s := posix(tc)
		s.VMAs = append(s.VMAs, unix.SetupVMA{Page: 9, Anon: true}, unix.SetupVMA{Page: 9, Anon: true, Val: 1})
	}},
	{"posix", "length", func(tc *kernel.TestCase) {
		s := posix(tc)
		s.Inodes = append(s.Inodes, unix.SetupInode{Inum: 9, Len: 1 << 40})
	}},
	{"posix", "page", func(tc *kernel.TestCase) {
		s := posix(tc)
		s.Inodes = append(s.Inodes, unix.SetupInode{Inum: 9, Pages: map[int64]int64{1 << 40: 1}})
	}},
	{"posix", "backlog", func(tc *kernel.TestCase) {
		s := posix(tc)
		s.Pipes = append(s.Pipes, unix.SetupPipe{ID: 9, Items: make([]int64, 1<<12)})
	}},
	// A file past kernel.MaxFilePages, which sv6 reconciled to length 8
	// where Linux said 10.
	{"posix", "extent", func(tc *kernel.TestCase) {
		tc.Setup = &unix.Setup{
			Files:  []unix.SetupFile{{Name: 0, Inum: 1}},
			Inodes: []unix.SetupInode{{Inum: 1, Len: 10, Pages: map[int64]int64{9: 5}}},
			FDs:    []unix.SetupFD{{Proc: 0, FD: 0, Inum: 1}},
		}
	}},
	// Admitted, but the write would make the file one: the kernel panics.
	{"posix", "write-past-bound", func(tc *kernel.TestCase) {
		tc.Setup = &unix.Setup{Inodes: []unix.SetupInode{{Inum: 1}}, FDs: []unix.SetupFD{{Proc: 0, FD: 0, Inum: 1}}}
		tc.Calls[0] = kernel.Call{Op: "pwrite", Args: map[string]int64{"fd": 0, "off": 20, "val": 1}}
	}},
	{"vm", "vm-proc", func(tc *kernel.TestCase) {
		s := tc.Setup.(*memvm.Setup)
		s.VMAs = append(s.VMAs, memvm.SetupVMA{Proc: 2, Page: 1})
	}},
	{"vm", "vm-page-twice", func(tc *kernel.TestCase) {
		s := tc.Setup.(*memvm.Setup)
		s.VMAs = append(s.VMAs, memvm.SetupVMA{Page: 9}, memvm.SetupVMA{Page: 9, Val: 1})
	}},
	{"kv", "key-twice", func(tc *kernel.TestCase) {
		s := tc.Setup.(*memkv.Setup)
		s.KVs = append(s.KVs, memkv.SetupKV{Key: 9, Val: 1}, memkv.SetupKV{Key: 9, Val: 2})
	}},
	{"kv", "bindings", func(tc *kernel.TestCase) {
		s := tc.Setup.(*memkv.Setup)
		for i := range kernel.MaxExtent + 1 {
			s.KVs = append(s.KVs, memkv.SetupKV{Key: int64(100 + i)})
		}
	}},
	{"queue", "core-twice", func(tc *kernel.TestCase) {
		s := tc.Setup.(*memq.Setup)
		s.Queues = append(s.Queues, memq.SetupQueue{Core: 9, Items: []int64{1}}, memq.SetupQueue{Core: 9})
	}},
	{"queue", "queues", func(tc *kernel.TestCase) {
		s := tc.Setup.(*memq.Setup)
		for i := range kernel.MaxExtent + 1 {
			s.Queues = append(s.Queues, memq.SetupQueue{Core: int64(100 + i)})
		}
	}},
	{"queue", "items", func(tc *kernel.TestCase) {
		s := tc.Setup.(*memq.Setup)
		s.Queues = append(s.Queues, memq.SetupQueue{Core: 9, Items: make([]int64, 1<<12)})
	}},
}

// init adds a foreign-setup row per spec and other spec: the test carries
// a random setup of the other spec (kerneltest.Gens).
func init() {
	for _, name := range slices.Sorted(maps.Keys(kerneltest.Gens)) {
		for _, other := range slices.Sorted(maps.Keys(kerneltest.Gens)) {
			if other != name {
				hostile = append(hostile, hostileEdit{name, "foreign-setup-" + other, func(tc *kernel.TestCase) {
					tc.Setup = kerneltest.Gens[other].Setup(rand.New(rand.NewSource(1)))
				}})
			}
		}
	}
}

// posix is tc's posix setup.
func posix(tc *kernel.TestCase) *unix.Setup { return tc.Setup.(*unix.Setup) }

// TestReplayerAdmission runs the hostile table against every Impl of every
// registered spec: each test must come back from CheckTests as an error
// naming it — no panic, no result handed out, in milliseconds (sv6 builds
// a cell per page of a file's length) — and the same Replayer must then
// check a valid group exactly as fresh kernels do. sweep.CheckTestsCtx,
// on a fresh worker, must refuse each test the same way. A test the Impl
// does not run — each other spec's setup (15 cases), an unknown op (5) —
// is kernel.ErrInadmissible through both, the reason named.
func TestReplayerAdmission(t *testing.T) {
	refused, foreign := 0, 0
	for _, name := range spec.Names() {
		sp, err := spec.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		gen := kerneltest.Gens[name]
		for _, im := range sp.Impls() {
			t.Run(name+"/"+im.Name, func(t *testing.T) {
				r := rand.New(rand.NewSource(3))
				rep := kernel.NewReplayer(im.New)
				for _, h := range hostile {
					if h.spec != "" && h.spec != name {
						continue
					}
					tc := kernel.TestCase{ID: "hostile-" + h.name, Setup: gen.Setup(r), Calls: [2]kernel.Call{gen.Call(r), gen.Call(r)}}
					h.edit(&tc)
					start := time.Now()
					_, err := rep.CheckTests(context.Background(), []kernel.TestCase{tc}, func(int, kernel.CheckResult) {
						t.Errorf("%s: a refused test was given a result", tc.ID)
					})
					if err == nil || !strings.Contains(err.Error(), tc.ID) {
						t.Errorf("%s: err = %v, want one naming the test", tc.ID, err)
					}
					if admitted := h.name == "write-past-bound"; errors.Is(err, kernel.ErrInadmissible) == admitted {
						t.Errorf("%s: err = %v; only what Admit and Refuse refuse is kernel.ErrInadmissible", tc.ID, err)
					}
					if d := time.Since(start); d > time.Second {
						t.Errorf("%s: refused after %v", tc.ID, d)
					}
					_, _, serr := sweep.CheckTestsCtx(context.Background(), im.New, []kernel.TestCase{tc})
					if serr == nil || errors.Is(serr, kernel.ErrInadmissible) != errors.Is(err, kernel.ErrInadmissible) {
						t.Errorf("%s: sweep.CheckTestsCtx err = %v, CheckTests err = %v", tc.ID, serr, err)
					}
					var reason string // what the kernel's refusal says, for a test it does not run
					if h.name == "unknown-op" {
						reason = fmt.Sprintf("unknown %s op %q", name, "frob")
					} else if other, ok := strings.CutPrefix(h.name, "foreign-setup-"); ok {
						reason = fmt.Sprintf("setup of spec %q, not %s", other, name)
					}
					if reason != "" {
						foreign++
						if errors.Is(err, kernel.ErrInadmissible) && strings.Contains(err.Error(), tc.ID+": "+reason) &&
							errors.Is(serr, kernel.ErrInadmissible) && strings.Contains(serr.Error(), tc.ID+": "+reason) {
							refused++
						} else {
							t.Errorf("%s: CheckTests err = %v, sweep.CheckTestsCtx err = %v; want kernel.ErrInadmissible saying %q", tc.ID, err, serr, reason)
						}
					}
				}

				setup := gen.Setup(r)
				tests := make([]kernel.TestCase, 6)
				for i := range tests {
					tests[i] = kernel.TestCase{ID: "valid", Setup: setup, Calls: [2]kernel.Call{gen.Call(r), gen.Call(r)}}
				}
				k := im.New()
				if n := testing.AllocsPerRun(10, func() { _, _ = kernel.Admit(&tests[0]), k.Refuse(&tests[0]) }); n != 0 {
					t.Errorf("admitting a valid test allocates %v times", n)
				}
				seen := 0
				_, err := rep.CheckTests(context.Background(), tests, func(i int, got kernel.CheckResult) {
					seen++
					want, _ := kerneltest.Check(im.New, tests[i])
					if got.ConflictFree != want.ConflictFree || got.Res != want.Res ||
						!reflect.DeepEqual(got.Conflicts, want.Conflicts) {
						t.Errorf("valid test %d after the hostile ones: replayed %+v != fresh %+v", i, got, want)
					}
				})
				if err != nil || seen != len(tests) {
					t.Errorf("valid group after the hostile ones: %d of %d results, err %v", seen, len(tests), err)
				}
			})
		}
	}
	if foreign != 20 {
		t.Errorf("%d tests an Impl does not run, want 20: each other spec's setup on every Impl, and an unknown op on each", foreign)
	}
	t.Logf("%d of %d tests an Impl does not run refused as kernel.ErrInadmissible", refused, foreign)
}

// TestCollidingSetupIsRefused holds each Replayer to refusing a test whose
// setup is another spec's before it groups any: a setup fingerprint is
// exact only within one setup type, and a vm mapping renders as the posix
// spec's anonymous mapping does, so a test of the other spec that joined a
// valid test's group on equal bytes would be checked on the other test's
// setup. The vm Replayer refuses the posix test, valid, and the posix
// Replayers the vm one, forged.
func TestCollidingSetupIsRefused(t *testing.T) {
	valid := &unix.Setup{VMAs: []unix.SetupVMA{{Proc: 0, Page: 1, Anon: true, Val: 5, Writable: true}}}
	forged := &memvm.Setup{VMAs: []memvm.SetupVMA{{Proc: 0, Page: 1, Val: 5, Writable: true}}}
	if valid.Fingerprint() != forged.Fingerprint() {
		t.Fatalf("the forged setup no longer collides: %q != %q", valid.Fingerprint(), forged.Fingerprint())
	}
	read := kernel.Call{Op: "memread", Args: map[string]int64{"page": 1}}
	tests := []kernel.TestCase{
		{ID: "valid", Setup: valid, Calls: [2]kernel.Call{read, read}},
		{ID: "forged", Setup: forged, Calls: [2]kernel.Call{read, read}},
	}
	for name, foreign := range map[string]string{"posix": "forged", "vm": "valid"} {
		sp, err := spec.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, im := range sp.Impls() {
			_, err := kernel.NewReplayer(im.New).CheckTests(context.Background(), tests, func(i int, _ kernel.CheckResult) {
				t.Errorf("%s: test %s was given a result", im.Name, tests[i].ID)
			})
			if !errors.Is(err, kernel.ErrInadmissible) || !strings.Contains(err.Error(), "test "+foreign+": setup of spec") {
				t.Errorf("%s: err = %v, want the %s test refused for its setup", im.Name, err, foreign)
			}
		}
	}
}

// FuzzReplayerAdmits holds the one line every outside test crosses to its
// contract, on bytes decoded as a kernel.TestCase and checked on every
// registered Impl by Replayers that live across inputs: CheckTests returns
// an error, or one result and leaves the test re-encoding as the input
// decoded — never a panic, never a run longer than a bound per input byte.
// A test whose setup is another spec's, or that names an op outside the
// Impl's spec (spec.OpNames, not the kernel's own table), is refused as
// kernel.ErrInadmissible, not as a recovered kernel panic. Seeds are the
// tests of the wire golden, random tests of every spec (kerneltest.Gens)
// and the edits of them the hostile table makes; every seed reaches the
// Replayers of every other spec too.
func FuzzReplayerAdmits(f *testing.F) {
	golden, err := os.ReadFile("../api/testdata/check_request.golden.json")
	if err != nil {
		f.Fatal(err)
	}
	var req struct {
		Tests []kernel.TestCase `json:"tests"`
	}
	if err := json.Unmarshal(golden, &req); err != nil || len(req.Tests) == 0 {
		f.Fatalf("no seed tests in the check request golden: %v", err)
	}
	add := func(tc kernel.TestCase) {
		if tc.Setup == nil {
			return // no setup does not encode
		}
		data, err := json.Marshal(tc)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		f.Add(data[:len(data)/2])
	}
	seeds := req.Tests
	for _, name := range spec.Names() {
		r := rand.New(rand.NewSource(1))
		gen := kerneltest.Gens[name]
		for range 3 {
			seeds = append(seeds, kernel.TestCase{ID: name, Setup: gen.Setup(r), Calls: [2]kernel.Call{gen.Call(r), gen.Call(r)}})
		}
	}
	type target struct {
		rep       *kernel.Replayer
		name, imp string
		ops       []string
	}
	var targets []target
	for _, name := range spec.Names() {
		sp, err := spec.Lookup(name)
		if err != nil {
			f.Fatal(err)
		}
		for _, im := range sp.Impls() {
			targets = append(targets, target{kernel.NewReplayer(im.New), name, im.Name, spec.OpNames(sp)})
		}
	}
	for _, tc := range seeds {
		add(tc)
		for _, h := range hostile {
			if h.spec != "" && h.spec != kernel.SetupSpec(tc.Setup) {
				continue
			}
			var edited kernel.TestCase // a deep copy: the edits append to shared slices
			data, _ := json.Marshal(tc)
			if err := json.Unmarshal(data, &edited); err != nil {
				f.Fatal(err)
			}
			h.edit(&edited)
			add(edited)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var tc kernel.TestCase
		if json.Unmarshal(data, &tc) != nil {
			return
		}
		want, err := json.Marshal(tc)
		if err != nil {
			t.Fatalf("a decoded test does not encode: %v", err)
		}
		limit := 100*time.Millisecond + time.Duration(len(data))*20*time.Microsecond
		for _, tg := range targets {
			var results []kernel.CheckResult
			tests := []kernel.TestCase{tc}
			start := time.Now()
			_, err := tg.rep.CheckTests(context.Background(), tests, func(_ int, res kernel.CheckResult) {
				results = append(results, res)
			})
			if d := time.Since(start); d > limit {
				t.Fatalf("%d input bytes took %v (limit %v)", len(data), d, limit)
			}
			foreign := kernel.SetupSpec(tc.Setup) != tg.name ||
				!slices.Contains(tg.ops, tc.Calls[0].Op) || !slices.Contains(tg.ops, tc.Calls[1].Op)
			if foreign && !errors.Is(err, kernel.ErrInadmissible) {
				t.Fatalf("%s: a test its kernel does not run came back as %v, not kernel.ErrInadmissible", tg.imp, err)
			}
			if err != nil {
				if len(results) != 0 {
					t.Fatalf("a result beside the error %v", err)
				}
				continue
			}
			if len(results) != 1 {
				t.Fatalf("%d results for one test", len(results))
			}
			if got, _ := json.Marshal(tests[0]); !bytes.Equal(got, want) {
				t.Fatalf("the checked test re-encodes as\n%s\nnot as the input did\n%s", got, want)
			}
		}
	})
}
