package sweep

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/analyzer"
	"repro/internal/kernel"
	"repro/internal/spec"
	"repro/internal/testgen"
)

func TestTestgenKeyStability(t *testing.T) {
	base := func() string {
		return TestgenKey("posix", "open", "rename", analyzer.Options{}, testgen.Options{MaxTestsPerPath: 4})
	}
	k := base()
	if len(k) != 64 || strings.Trim(k, "0123456789abcdef") != "" {
		t.Fatalf("key %q is not lowercase hex sha256", k)
	}
	if k != base() {
		t.Error("identical inputs produced different keys")
	}

	// Every determining input must move the key.
	variants := map[string]string{
		"pair":         TestgenKey("posix", "open", "link", analyzer.Options{}, testgen.Options{MaxTestsPerPath: 4}),
		"pair order":   TestgenKey("posix", "rename", "open", analyzer.Options{}, testgen.Options{MaxTestsPerPath: 4}),
		"model config": TestgenKey("posix", "open", "rename", analyzer.Options{Config: spec.Config{LowestFD: true}}, testgen.Options{MaxTestsPerPath: 4}),
		"max paths":    TestgenKey("posix", "open", "rename", analyzer.Options{MaxPaths: 128}, testgen.Options{MaxTestsPerPath: 4}),
		"per path":     TestgenKey("posix", "open", "rename", analyzer.Options{}, testgen.Options{MaxTestsPerPath: 8}),
		"spec":         TestgenKey("queue", "open", "rename", analyzer.Options{}, testgen.Options{MaxTestsPerPath: 4}),
	}
	for what, v := range variants {
		if v == k {
			t.Errorf("changing %s did not change the key", what)
		}
	}

	// The one lowest-FD setting is rendered under both names it had while
	// the analyzer and testgen each carried a copy, so the addresses of
	// entries written before the merge do not move.
	for _, lowest := range []bool{false, true} {
		legacy := sha256.Sum256([]byte(fmt.Sprintf(
			"v%d|tier=testgen|spec=posix|pair=open,rename|model.lowestfd=%v|analyzer.maxpaths=4096|testgen.maxtestsperpath=4|testgen.lowestfd=%v",
			CacheVersion, lowest, lowest)))
		got := TestgenKey("posix", "open", "rename", analyzer.Options{Config: spec.Config{LowestFD: lowest}}, testgen.Options{})
		if got != hex.EncodeToString(legacy[:]) {
			t.Errorf("lowestfd=%v: key moved from its pre-merge address", lowest)
		}
	}

	// Zero-value options normalize to the pipeline defaults, so explicit
	// and implicit defaults share cache entries.
	zero := TestgenKey("posix", "open", "rename", analyzer.Options{}, testgen.Options{})
	explicit := TestgenKey("posix", "open", "rename", analyzer.Options{MaxPaths: 4096}, testgen.Options{MaxTestsPerPath: 4})
	if zero != explicit {
		t.Error("explicit defaults produced a different key than zero values")
	}

	// The kernel set must NOT influence the testgen key: that independence
	// is what makes kernel-subset reruns incremental.
	ck := CheckKey(k, "sv6")
	if len(ck) != 64 || ck == k {
		t.Errorf("check key %q is not a distinct sha256", ck)
	}
	if CheckKey(k, "linux") == ck {
		t.Error("changing the kernel did not change the check key")
	}
	if CheckKey(variants["pair"], "sv6") == ck {
		t.Error("changing the testgen key did not change the check key")
	}
}

// cachedTests is a nontrivial test-case slice exercising every Setup field
// that must survive the JSON round trip through the TESTGEN tier.
func cachedTests() []kernel.TestCase {
	return []kernel.TestCase{{
		ID: "open_rename_path0_test0",
		Setup: kernel.Setup{
			Files:  []kernel.SetupFile{{Name: "f1", Inum: 1}},
			Inodes: []kernel.SetupInode{{Inum: 1, ExtraLinks: 2, Len: 1, Pages: map[int64]int64{0: 7}}},
			FDs:    []kernel.SetupFD{{Proc: 1, FD: 3, Inum: 1, Off: 1}},
			Pipes:  []kernel.SetupPipe{{ID: 1, Items: []int64{4, 5}}},
			VMAs:   []kernel.SetupVMA{{Proc: 0, Page: 2, Anon: true, Val: 9, Writable: true}},
		},
		Calls: [2]kernel.Call{
			{Op: "open", Proc: 0, Args: map[string]int64{"fname": 1, "anyfd": 1}},
			{Op: "rename", Proc: 1, Args: map[string]int64{"src": 1, "dst": 2}},
		},
	}}
}

func TestCacheTierRoundTripAndAccounting(t *testing.T) {
	c, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	tgKey := TestgenKey("posix", "open", "rename", analyzer.Options{}, testgen.Options{})
	ckKey := CheckKey(tgKey, "sv6")

	if _, ok := c.GetTests(tgKey); ok {
		t.Fatal("testgen hit on empty cache")
	}
	if _, ok := c.GetCell(ckKey); ok {
		t.Fatal("check hit on empty cache")
	}

	tests := cachedTests()
	if err := c.PutTests(tgKey, tests); err != nil {
		t.Fatal(err)
	}
	got, ok := c.GetTests(tgKey)
	if !ok {
		t.Fatal("testgen miss after PutTests")
	}
	if !reflect.DeepEqual(got, tests) {
		t.Errorf("tests did not round-trip\ngot  %+v\nwant %+v", got, tests)
	}

	cell := KernelCell{Kernel: "sv6", Total: 3, Conflicts: 1}
	if err := c.PutCell(ckKey, cell); err != nil {
		t.Fatal(err)
	}
	gotCell, ok := c.GetCell(ckKey)
	if !ok {
		t.Fatal("check miss after PutCell")
	}
	if *gotCell != cell {
		t.Errorf("cell did not round-trip: got %+v, want %+v", *gotCell, cell)
	}

	// The ledger is the engine's, one CacheStats per sweep; its tier sums:
	s := CacheStats{TestgenHits: 1, TestgenMisses: 2, CheckHits: 3, CheckMisses: 4}
	if s.Hits() != 4 || s.Misses() != 6 {
		t.Errorf("tier sums hits=%d misses=%d, want 4/6", s.Hits(), s.Misses())
	}
}

// TestCacheCorruptionRecovery pins the graceful-degradation contract on
// both tiers: a corrupted, version-mismatched or key-mismatched entry is a
// miss (so the sweep recomputes), never an error. The version-mismatch
// cases double as the CacheVersion-bump discipline: entries stamped by an
// older code version are never matched again.
func TestCacheCorruptionRecovery(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	tgKey := TestgenKey("posix", "close", "close", analyzer.Options{}, testgen.Options{})
	ckKey := CheckKey(tgKey, "sv6")
	tests := cachedTests()
	cell := KernelCell{Kernel: "sv6", Total: 2}
	if err := c.PutTests(tgKey, tests); err != nil {
		t.Fatal(err)
	}
	if err := c.PutCell(ckKey, cell); err != nil {
		t.Fatal(err)
	}
	testsFile := filepath.Join(dir, tgKey+".tests.json")
	cellFile := filepath.Join(dir, ckKey+".cell.json")

	// Truncated garbage in either tier.
	for _, f := range []string{testsFile, cellFile} {
		if err := os.WriteFile(f, []byte("{not json"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := c.GetTests(tgKey); ok {
		t.Error("corrupted testgen entry served as a hit")
	}
	if _, ok := c.GetCell(ckKey); ok {
		t.Error("corrupted check entry served as a hit")
	}

	// Valid JSON from a different (older) code version: what a
	// CacheVersion bump leaves behind.
	staleT, _ := json.Marshal(testgenEntry{Version: CacheVersion - 1, Key: tgKey, Tests: tests})
	staleC, _ := json.Marshal(checkEntry{Version: CacheVersion - 1, Key: ckKey, Cell: cell})
	if err := os.WriteFile(testsFile, staleT, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(cellFile, staleC, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.GetTests(tgKey); ok {
		t.Error("version-mismatched testgen entry served as a hit")
	}
	if _, ok := c.GetCell(ckKey); ok {
		t.Error("version-mismatched check entry served as a hit")
	}

	// Entries whose embedded key disagrees with the filename (e.g. files
	// copied between cache dirs).
	alienT, _ := json.Marshal(testgenEntry{Version: CacheVersion, Key: "somebody-else", Tests: tests})
	alienC, _ := json.Marshal(checkEntry{Version: CacheVersion, Key: "somebody-else", Cell: cell})
	if err := os.WriteFile(testsFile, alienT, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(cellFile, alienC, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.GetTests(tgKey); ok {
		t.Error("key-mismatched testgen entry served as a hit")
	}
	if _, ok := c.GetCell(ckKey); ok {
		t.Error("key-mismatched check entry served as a hit")
	}

	// Overwriting repairs both slots.
	if err := c.PutTests(tgKey, tests); err != nil {
		t.Fatal(err)
	}
	if err := c.PutCell(ckKey, cell); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.GetTests(tgKey); !ok {
		t.Error("repaired testgen entry still misses")
	}
	if _, ok := c.GetCell(ckKey); !ok {
		t.Error("repaired check entry still misses")
	}
}

// TestTruncatedResultsNotCached pins the truncation/cache interaction: a
// result whose exploration was cut short (Unknown > 0) is a lower bound,
// and storing it would serve that lower bound as the pair's answer to
// every later sweep of the same configuration — and, since CheckKey chains
// the testgen key, its cells too. A path cap of 1 truncates every
// multi-path pair.
func TestTruncatedResultsNotCached(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep pipeline in -short mode")
	}
	dir := t.TempDir()
	cache, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	ops, kernels := testOps(t), testKernels()
	capped := Config{
		Ops: ops, Kernels: kernels, Cache: cache,
		Analyzer: analyzer.Options{MaxPaths: 1},
	}
	wantPairs := len(ops) * (len(ops) + 1) / 2
	// Nothing is stored, so the second sweep is as cold as the first.
	for _, round := range []string{"first", "second"} {
		res, err := runSweep(capped)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range res.Pairs {
			if p.Unknown == 0 {
				t.Errorf("%s capped sweep: pair %s reads as complete", round, p.Pair())
			}
		}
		if want := (CacheStats{TestgenMisses: wantPairs, CheckMisses: wantPairs * len(kernels)}); res.Cache != want {
			t.Errorf("%s capped sweep: cache traffic %+v, want %+v", round, res.Cache, want)
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != 0 {
			t.Errorf("%s capped sweep stored %d cache files; truncated pairs must not be stored", round, len(entries))
		}
	}

	// An uncapped sweep reports complete results and stores every tier.
	full, err := runSweep(Config{Ops: ops, Kernels: kernels, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range full.Pairs {
		if p.Unknown > 0 {
			t.Errorf("uncapped pair %s reports Unknown=%d", p.Pair(), p.Unknown)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if want := wantPairs * (1 + len(kernels)); len(entries) != want {
		t.Errorf("cache holds %d files after the uncapped sweep, want %d", len(entries), want)
	}
}

// TestSweepSurvivesUnwritableCache pins the write-side degradation
// contract: when results can't be stored (read-only cache directory), the
// sweep still completes and reports the failed stores instead of erroring.
func TestSweepSurvivesUnwritableCache(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep pipeline in -short mode")
	}
	dir := t.TempDir()
	cache, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chmod(dir, 0o555); err != nil {
		t.Fatal(err)
	}
	defer os.Chmod(dir, 0o755)
	if os.Getuid() == 0 {
		t.Skip("running as root: directory permissions are not enforced")
	}

	ops, kernels := testOps(t), testKernels()
	res, err := runSweep(Config{Ops: ops, Kernels: kernels, Workers: 2, Cache: cache})
	if err != nil {
		t.Fatalf("sweep failed on unwritable cache: %v", err)
	}
	wantPairs := len(ops) * (len(ops) + 1) / 2
	if len(res.Pairs) != wantPairs {
		t.Errorf("got %d pairs, want %d", len(res.Pairs), wantPairs)
	}
	// One failed testgen store plus one failed cell store per kernel, per
	// pair.
	if want := wantPairs * (1 + len(kernels)); res.CacheWriteErrors != want {
		t.Errorf("CacheWriteErrors=%d, want %d", res.CacheWriteErrors, want)
	}
}

// TestSweepRecoversFromCorruptedCache pins end-to-end recovery: a sweep
// over a cache directory full of garbage recomputes everything in both
// tiers and succeeds.
func TestSweepRecoversFromCorruptedCache(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep pipeline in -short mode")
	}
	dir := t.TempDir()
	cache, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	ops, kernels := testOps(t), testKernels()
	cfg := Config{Ops: ops, Kernels: kernels, Workers: 4, Cache: cache}
	first, err := runSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Smash every entry on disk, in both tiers.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	wantFiles := len(first.Pairs) * (1 + len(kernels))
	if len(entries) != wantFiles {
		t.Fatalf("cache holds %d files, want %d", len(entries), wantFiles)
	}
	for _, e := range entries {
		if err := os.WriteFile(filepath.Join(dir, e.Name()), []byte("garbage"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	second, err := runSweep(cfg)
	if err != nil {
		t.Fatalf("sweep failed on corrupted cache: %v", err)
	}
	wantMiss := CacheStats{
		TestgenMisses: len(first.Pairs),
		CheckMisses:   len(first.Pairs) * len(kernels),
	}
	if second.Cache != wantMiss {
		t.Errorf("corrupted cache: stats %+v, want %+v", second.Cache, wantMiss)
	}

	// Third run sees the repaired entries.
	third, err := runSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantHit := CacheStats{
		TestgenHits: len(first.Pairs),
		CheckHits:   len(first.Pairs) * len(kernels),
	}
	if third.Cache != wantHit {
		t.Errorf("after repair: stats %+v, want %+v", third.Cache, wantHit)
	}
}
