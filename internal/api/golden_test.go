package api

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/kernel"
	"repro/internal/sweep"
)

var update = flag.Bool("update", false, "rewrite the wire-format golden files")

// sampleTest is a representative concrete test case exercising every Setup
// table the wire must carry (files, inodes, fds, pipes, VMAs, queues).
func sampleTest() kernel.TestCase {
	return kernel.TestCase{
		ID: "rename-rename-p0-t1",
		Setup: kernel.Setup{
			Files:  []kernel.SetupFile{{Name: "f0", Inum: 1}, {Name: "f1", Inum: 1}},
			Inodes: []kernel.SetupInode{{Inum: 1, ExtraLinks: 1, Len: 2, Pages: map[int64]int64{0: 7}}},
			FDs:    []kernel.SetupFD{{Proc: 0, FD: 3, Inum: 1, Off: 1}, {Proc: 1, FD: 4, Pipe: true, PipeID: 2, WriteEnd: true}},
			Pipes:  []kernel.SetupPipe{{ID: 2, Items: []int64{5}}},
			VMAs:   []kernel.SetupVMA{{Proc: 0, Page: 8, Anon: true, Val: 3, Writable: true}},
			Queues: []kernel.SetupQueue{{Core: -1, Items: []int64{9, 10}}},
			KVs:    []kernel.SetupKV{{Key: 1, Val: 2}},
		},
		Calls: [2]kernel.Call{
			{Op: "rename", Proc: 0, Args: map[string]int64{"old": 0, "new": 1}},
			{Op: "rename", Proc: 1, Args: map[string]int64{"old": 1, "new": 0}},
		},
	}
}

// goldenCases enumerates one canonical value per wire type. The encodings
// are the contract of this Version: if the encoding of an existing field
// changes, Version must be bumped and both Client bindings revisited. A
// response or frame may gain a purely additive omitempty/omitzero field
// (and a fixture extension exercising it) within a version: clients
// ignore unknown keys, and absent keys decode to zero values. A request
// may not, since the server refuses a body with a field it does not know.
func goldenCases() map[string]any {
	pair := sweep.PairResult{
		OpA: "rename", OpB: "rename", Tests: 6,
		Cells:     []sweep.KernelCell{{Kernel: "linux", Total: 6, Conflicts: 2}, {Kernel: "sv6", Total: 6, Conflicts: 0}},
		Unknown:   1,
		Cached:    true,
		ElapsedMS: 12.5,
		StartMS:   2.25,
		Phases:    sweep.PhaseTimes{AnalyzeMS: 1.5, TestgenMS: 2.25, CheckMS: 8, SolverMS: 0.75},
		Solver:    sweep.SolverCounters{SatCalls: 37, BudgetHits: 1},
	}
	vmPair := sweep.PairResult{
		OpA: "mmap", OpB: "munmap", Tests: 4,
		Cells:     []sweep.KernelCell{{Kernel: "memvm", Total: 4, Conflicts: 1}},
		ElapsedMS: 3.5,
		Phases:    sweep.PhaseTimes{AnalyzeMS: 1, TestgenMS: 0.5, CheckMS: 2},
	}
	return map[string]any{
		"error": &Error{Code: CodeBadRequest, Message: `unknown spec "posxi" (known specs: posix, queue)`},
		"specs_response": &SpecsResponse{Version: Version, Specs: []SpecInfo{{
			Name: "queue", Ops: []string{"send", "recv", "send_any", "recv_any"},
			Sets:       map[string][]string{"any": {"send_any", "recv_any"}, "ordered": {"send", "recv"}},
			DefaultSet: "all", Impls: []string{"memq"},
		}}},
		"analyze_request": &AnalyzeRequest{Version: Version, OpA: "stat", OpB: "unlink",
			Options: Options{Spec: "posix", LowestFD: true}},
		"analysis": &Analysis{Spec: "posix", OpA: "stat", OpB: "unlink",
			Paths: 4, Commutative: 2, OrderDependent: 2, Unknown: 1,
			Clauses: []string{"the names differ", "the file is absent in both orders"},
			PathDetails: []PathSummary{
				{Condition: "(and (not (= stat.0.fname unlink.1.fname)))", Commutes: true},
				{Condition: "(= stat.0.fname unlink.1.fname)", CanDiverge: true, Unknown: true},
			}},
		"testgen_request": &TestgenRequest{Version: Version, OpA: "rename", OpB: "rename",
			Options: Options{MaxTestsPerPath: 2}},
		"test_set": &TestSet{Spec: "posix", OpA: "rename", OpB: "rename",
			Tests: []kernel.TestCase{sampleTest()}, Unknown: 1},
		"check_request": &CheckRequest{Version: Version, Kernel: "sv6",
			Tests: []kernel.TestCase{sampleTest()}, Options: Options{Spec: "posix"}},
		"check_summary": &CheckSummary{Kernel: "sv6", Total: 2, Conflicts: 1,
			Verdicts: []TestVerdict{
				{TestID: "a", ConflictFree: true},
				{TestID: "b", Conflicts: []string{"inode[1].nlink"}},
			}},
		"sweep_request": &SweepRequest{Version: Version,
			Options: Options{Spec: "posix", Ops: "fs", Kernels: []string{"linux", "sv6"}, Workers: 8}},
		"frame_update": &Frame{Type: FrameUpdate,
			Progress: &Progress{Done: 3, Total: 45, ElapsedMS: 810},
			Pair:     &pair},
		"frame_result": &Frame{Type: FrameResult, Result: &SweepResult{
			Spec: "posix", Pairs: []sweep.PairResult{pair}, Workers: 8, ElapsedMS: 910.25,
			Cache:            &CacheStats{TestgenHits: 40, TestgenMisses: 5, CheckHits: 80, CheckMisses: 10},
			CacheWriteErrors: 1,
		}},
		"frame_error": &Frame{Type: FrameError, Error: &Error{Code: CodeCanceled, Message: "context canceled"}},
		// One non-POSIX spec's result frame: pins that a vm pair result —
		// an implementation cell naming the memvm reference kernel under
		// the "vm" spec identity — rides the same encoding.
		"frame_result_vm": &Frame{Type: FrameResult, Result: &SweepResult{
			Spec: "vm", Pairs: []sweep.PairResult{vmPair}, Workers: 2, ElapsedMS: 4.25,
		}},
		"fleet_claim_request": &FleetClaimRequest{Version: Version, Worker: "host-a-8372", Max: 4,
			Sweep: FleetSweepSpec{Spec: "posix", Ops: []string{"open", "rename"}, Kernels: []string{"linux", "sv6"},
				LowestFD: true, MaxTestsPerPath: 2},
			Renew:   []string{"ab12cd34.7"},
			Release: []string{"ab12cd34.3"}},
		"fleet_claim_response": &FleetClaimResponse{SweepID: "ab12cd34ef", TTLMS: 30000,
			Leases: []sweep.FleetLease{{Pair: "open/rename", ID: "ab12cd34.8"}, {Pair: "rename/rename", ID: "ab12cd34.9", Stolen: true}},
			Total:  3, Completed: 1, Pending: 0, Leased: 2},
		"fleet_result_request": &FleetResultRequest{Version: Version, Worker: "host-a-8372",
			Sweep:   FleetSweepSpec{Spec: "posix", Ops: []string{"rename"}, Kernels: []string{"sv6"}},
			Results: []sweep.FleetPairDone{{Lease: "ab12cd34.8", Pair: pair}}},
		"fleet_result_response": &FleetResultResponse{Accepted: 1, Duplicate: 1, Stale: 1,
			Completed: 3, Total: 3, Done: true},
		"fleet_status_response": &sweep.FleetStatusResponse{SweepID: "ab12cd34ef",
			Total: 3, Completed: 3, Requeued: 1, Done: true,
			Workers: map[string]sweep.FleetWorkerStatus{"host-a-8372": {Leased: 0, Completed: 2, Stolen: 1}},
			Results: []sweep.PairResult{pair}},
	}
}

// TestFleetVersionTracksWire pins the fleet protocol's version stamp to
// the wire version: the fleet routes live under /v1/ and their requests
// must version together with the rest of the contract.
func TestFleetVersionTracksWire(t *testing.T) {
	if sweep.FleetAPIVersion != Version {
		t.Fatalf("sweep.FleetAPIVersion = %d, api.Version = %d; the fleet protocol must version with the wire contract", sweep.FleetAPIVersion, Version)
	}
}

// TestWireGolden pins every wire encoding byte-for-byte against its
// golden file, and round-trips the bytes back into an equal value — the
// two halves of the interface contract: stability and losslessness.
func TestWireGolden(t *testing.T) {
	for name, v := range goldenCases() {
		t.Run(name, func(t *testing.T) {
			got, err := json.MarshalIndent(v, "", "\t")
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, '\n')
			path := filepath.Join("testdata", name+".golden.json")
			if *update {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run `go test ./internal/api -update` after a deliberate wire change AND bump api.Version)", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("wire encoding of %s changed from golden — this breaks remote clients; bump api.Version if deliberate\ngot:\n%s\nwant:\n%s", name, got, want)
			}

			// Round-trip: decoding the golden bytes must reproduce the
			// value exactly (no field silently dropped by a tag typo).
			back := reflect.New(reflect.TypeOf(v).Elem()).Interface()
			if err := json.Unmarshal(want, back); err != nil {
				t.Fatalf("golden does not decode: %v", err)
			}
			if !reflect.DeepEqual(v, back) {
				t.Errorf("round-trip of %s lost data:\nsent: %#v\ngot:  %#v", name, v, back)
			}
		})
	}
}

// TestProgressFromEvent pins what an engine event puts on the wire: the
// sweep's counters and its wall time in milliseconds, nothing about the
// pair, which travels beside it as the frame's Pair.
func TestProgressFromEvent(t *testing.T) {
	pr := &sweep.PairResult{OpA: "open", OpB: "close", Tests: 9, Cached: true, Coalesced: true, ElapsedMS: 3.25}
	ev := sweep.Event{Pair: "open/close", Done: 2, Total: 6, Tests: 9, PairMS: 3.25, Elapsed: 42500 * time.Microsecond, Result: pr}
	if got, want := *ProgressFromEvent(ev), (Progress{Done: 2, Total: 6, ElapsedMS: 42.5}); got != want {
		t.Errorf("ProgressFromEvent = %+v, want %+v", got, want)
	}
}

// TestResultRoundTrip pins SweepResult <-> sweep.Result, including the
// nil-vs-zero cache distinction.
func TestResultRoundTrip(t *testing.T) {
	res := &sweep.Result{
		Spec:    "posix",
		Pairs:   []sweep.PairResult{{OpA: "stat", OpB: "stat", Tests: 1, ElapsedMS: 1}},
		Workers: 4, Elapsed: 1500 * 1000 * 1000,
		Cache:            sweep.CacheStats{TestgenHits: 1, TestgenMisses: 2, CheckHits: 3, CheckMisses: 4},
		CacheWriteErrors: 5,
	}
	back := ResultFromSweep(res, true).ToSweep()
	if !reflect.DeepEqual(res, back) {
		t.Errorf("round-trip with cache:\nsent: %+v\ngot:  %+v", res, back)
	}
	if got := ResultFromSweep(res, false); got.Cache != nil {
		t.Error("hasCache=false still produced wire cache stats")
	}
}

// TestCheckVersion pins version enforcement.
func TestCheckVersion(t *testing.T) {
	if err := CheckVersion(Version); err != nil {
		t.Errorf("current version rejected: %v", err)
	}
	err := CheckVersion(Version + 1)
	if err == nil {
		t.Fatal("future version accepted")
	}
	if err.Code != CodeVersionMismatch {
		t.Errorf("code = %q, want %q", err.Code, CodeVersionMismatch)
	}
}
