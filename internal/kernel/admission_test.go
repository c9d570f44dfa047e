package kernel_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/kernel"
	"repro/internal/kernel/kerneltest"
	_ "repro/internal/kvspec"    // registers the "kv" spec
	_ "repro/internal/model"     // registers the "posix" spec
	_ "repro/internal/queuespec" // registers the "queue" spec
	"repro/internal/spec"
	_ "repro/internal/vmspec" // registers the "vm" spec
)

// hostile lists the tests no TESTGEN run produces and a request body or a
// cache entry can: each edit makes a valid test one the Replayer must
// refuse. All but the first and the last are Admit's; the op table is the
// spec's, so an unknown op gets as far as the kernel's panic, as does a
// write past the file bound.
var hostile = []struct {
	name string
	edit func(*kernel.TestCase)
}{
	{"unknown-op", func(tc *kernel.TestCase) { tc.Calls[1].Op = "frob" }},
	{"call-proc", func(tc *kernel.TestCase) { tc.Calls[0].Proc = 5 }},
	{"argument", func(tc *kernel.TestCase) { tc.Calls[0].Args = map[string]int64{"off": 1 << 60, "page": 1 << 60} }},
	{"fd-proc", func(tc *kernel.TestCase) {
		tc.Setup.FDs = append(tc.Setup.FDs, kernel.SetupFD{Proc: 5, FD: 1, Inum: 1})
	}},
	{"vma-proc", func(tc *kernel.TestCase) {
		tc.Setup.VMAs = append(tc.Setup.VMAs, kernel.SetupVMA{Proc: -1, Anon: true})
	}},
	{"name", func(tc *kernel.TestCase) {
		tc.Setup.Files = append(tc.Setup.Files, kernel.SetupFile{Name: "f1zzz", Inum: 1})
	}},
	{"name-twice", func(tc *kernel.TestCase) {
		tc.Setup.Files = append(tc.Setup.Files, kernel.SetupFile{Name: "f7", Inum: 1}, kernel.SetupFile{Name: "f7", Inum: 2})
	}},
	{"length", func(tc *kernel.TestCase) {
		tc.Setup.Inodes = append(tc.Setup.Inodes, kernel.SetupInode{Inum: 9, Len: 1 << 40})
	}},
	{"page", func(tc *kernel.TestCase) {
		tc.Setup.Inodes = append(tc.Setup.Inodes, kernel.SetupInode{Inum: 9, Pages: map[int64]int64{1 << 40: 1}})
	}},
	{"items", func(tc *kernel.TestCase) {
		tc.Setup.Queues = append(tc.Setup.Queues, kernel.SetupQueue{Core: -1, Items: make([]int64, 1<<12)})
	}},
	// A file past kernel.MaxFilePages, which sv6 reconciled to length 8
	// where Linux said 10.
	{"extent", func(tc *kernel.TestCase) {
		tc.Setup = kernel.Setup{
			Files:  []kernel.SetupFile{{Name: "f0", Inum: 1}},
			Inodes: []kernel.SetupInode{{Inum: 1, Len: 10, Pages: map[int64]int64{9: 5}}},
			FDs:    []kernel.SetupFD{{Proc: 0, FD: 0, Inum: 1}},
		}
	}},
	// Admitted, but the write would make the file one: the kernel panics.
	{"write-past-bound", func(tc *kernel.TestCase) {
		tc.Setup = kernel.Setup{Inodes: []kernel.SetupInode{{Inum: 1}}, FDs: []kernel.SetupFD{{Proc: 0, FD: 0, Inum: 1}}}
		tc.Calls[0] = kernel.Call{Op: "pwrite", Args: map[string]int64{"fd": 0, "off": 20, "val": 1}}
	}},
}

// TestReplayerAdmission runs the hostile table against every Impl of every
// registered spec: each test must come back from CheckTests as an error
// naming it — no panic, no result handed out, in milliseconds (sv6 builds
// a cell per page of a file's length) — and the same Replayer must then
// check a valid group exactly as fresh kernels do.
func TestReplayerAdmission(t *testing.T) {
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
					tc := kernel.TestCase{ID: "hostile-" + h.name, Setup: gen.Setup(r), Calls: [2]kernel.Call{gen.Call(r), gen.Call(r)}}
					h.edit(&tc)
					start := time.Now()
					_, err := rep.CheckTests(context.Background(), []kernel.TestCase{tc}, func(int, kernel.CheckResult) {
						t.Errorf("%s: a refused test was given a result", tc.ID)
					})
					if err == nil || !strings.Contains(err.Error(), tc.ID) {
						t.Errorf("%s: err = %v, want one naming the test", tc.ID, err)
					}
					if admitted := h.name == "unknown-op" || h.name == "write-past-bound"; errors.Is(err, kernel.ErrInadmissible) == admitted {
						t.Errorf("%s: err = %v; only what Admit refuses is kernel.ErrInadmissible", tc.ID, err)
					}
					if d := time.Since(start); d > time.Second {
						t.Errorf("%s: refused after %v", tc.ID, d)
					}
				}

				setup := gen.Setup(r)
				tests := make([]kernel.TestCase, 6)
				for i := range tests {
					tests[i] = kernel.TestCase{ID: "valid", Setup: setup, Calls: [2]kernel.Call{gen.Call(r), gen.Call(r)}}
				}
				if n := testing.AllocsPerRun(10, func() { _ = kernel.Admit(&tests[0]) }); n != 0 {
					t.Errorf("admitting a valid test allocates %v times", n)
				}
				seen := 0
				_, err := rep.CheckTests(context.Background(), tests, func(i int, got kernel.CheckResult) {
					seen++
					want := kerneltest.Check(im.New, tests[i])
					if got.ConflictFree != want.ConflictFree || got.Res != want.Res || got.Commuted != want.Commuted ||
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
}

// FuzzReplayerAdmits holds the one line every outside test crosses to its
// contract, on bytes decoded as a kernel.TestCase and checked on both POSIX
// kernels by Replayers that live across inputs: CheckTests returns an error,
// or one result whose Test re-encodes as the input decoded — never a panic,
// never a run longer than a bound per input byte. Seeds are the tests of the
// wire golden and the edits of them the hostile table makes.
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
		data, err := json.Marshal(tc)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		f.Add(data[:len(data)/2])
	}
	for _, tc := range req.Tests {
		add(tc)
		for _, h := range hostile {
			var edited kernel.TestCase // a deep copy: the edits append to shared slices
			data, _ := json.Marshal(tc)
			if err := json.Unmarshal(data, &edited); err != nil {
				f.Fatal(err)
			}
			h.edit(&edited)
			add(edited)
		}
	}
	var reps []*kernel.Replayer
	for _, fresh := range kernels() {
		reps = append(reps, kernel.NewReplayer(fresh))
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
		for _, rep := range reps {
			var results []kernel.CheckResult
			start := time.Now()
			_, err := rep.CheckTests(context.Background(), []kernel.TestCase{tc}, func(_ int, res kernel.CheckResult) {
				results = append(results, res)
			})
			if d := time.Since(start); d > limit {
				t.Fatalf("%d input bytes took %v (limit %v)", len(data), d, limit)
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
			if got, _ := json.Marshal(results[0].Test); !bytes.Equal(got, want) {
				t.Fatalf("the result's test re-encodes as\n%s\nnot as the input did\n%s", got, want)
			}
		}
	})
}
