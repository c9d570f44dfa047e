package sweep

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/analyzer"
	"repro/internal/kernel"
	"repro/internal/pins"
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

// TestCacheKeysFollowPins holds the keys to the verdict pins: given two pin
// tables that differ in one spec's corpus line, or in one Impl's trace
// line, exactly that spec's TESTGEN keys (and the CHECK keys chained to
// them) change, or exactly that Impl's CHECK keys, and so do the fleet
// session keys that name it; a spec or Impl with no line keys the same
// under both tables.
func TestCacheKeysFollowPins(t *testing.T) {
	read := func(name string) string {
		data, err := os.ReadFile("../pins/" + name)
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	corpus, trace := read("corpus.digest"), read("trace.digest")
	// moved rewrites the first line whose field i starts with prefix, as
	// -update would after a change that moves it.
	moved := func(text string, i int, prefix string) string {
		lines := strings.SplitAfter(text, "\n")
		for j, l := range lines {
			if f := strings.Fields(l); len(f) > i && strings.HasPrefix(f[i], prefix) {
				lines[j] = strings.Replace(l, "sha256=", "sha256=0", 1)
				return strings.Join(lines, "")
			}
		}
		t.Fatalf("no line with field %d %q", i, prefix)
		return ""
	}
	base := pins.Parse(corpus, trace)
	if TestgenKey("kv", "put", "scan", analyzer.Options{}, testgen.Options{}) !=
		testgenKey(base, "kv", "put", "scan", analyzer.Options{}, testgen.Options{}) {
		t.Fatal("pins.Current is not the table of the committed digests")
	}

	specs := []string{"posix", "kv", "vm", "queue", "counting"}
	impls := []string{"linux", "sv6", "memkv", "memvm", "memq", "counting"}
	shapes := []analyzer.Options{{}, {Config: spec.Config{LowestFD: true}}, {MaxPaths: 7}}
	tgKeys := func(p pins.Table, sp string) (keys []string) {
		for _, a := range shapes {
			keys = append(keys, testgenKey(p, sp, "a", "b", a, testgen.Options{}))
		}
		return keys
	}
	fleetKey := func(p pins.Table, sp, impl string) string {
		return FleetSweepSpec{Spec: sp, Ops: []string{"a", "b"}, Kernels: []string{"sv6", impl}}.key(p)
	}
	for _, c := range []struct {
		name        string
		table       pins.Table
		spec, impl  string // what the moved line names
		implsOfSpec bool   // the spec's move reaches every CHECK key of it
	}{
		{"kv corpus line", pins.Parse(moved(corpus, 0, "kv/"), trace), "kv", "", true},
		{"linux trace line", pins.Parse(corpus, moved(trace, 2, "linux")), "", "linux", false},
	} {
		for _, sp := range specs {
			before, after := tgKeys(base, sp), tgKeys(c.table, sp)
			for i := range before {
				if (before[i] != after[i]) != (sp == c.spec) {
					t.Errorf("%s: spec %s shape %d: TESTGEN key moved=%t", c.name, sp, i, before[i] != after[i])
				}
				for _, im := range impls {
					ckMoved := checkKey(base, before[i], im) != checkKey(c.table, after[i], im)
					if ckMoved != (sp == c.spec || im == c.impl) {
						t.Errorf("%s: spec %s shape %d impl %s: CHECK key moved=%t", c.name, sp, i, im, ckMoved)
					}
				}
			}
			for _, im := range impls {
				fMoved := fleetKey(base, sp, im) != fleetKey(c.table, sp, im)
				if fMoved != (sp == c.spec || im == c.impl) {
					t.Errorf("%s: fleet session of spec %s with %s moved=%t", c.name, sp, im, fMoved)
				}
			}
		}
	}
}

// TestKeyDerivationAllocs holds a pair's key derivation, which a warm
// sweep pays for every pair of every request, to the allocations it costs:
// one for the address string. The CacheVersion 4 keys, rendered through
// fmt, cost 11 for TestgenKey and 6 for each CheckKey.
func TestKeyDerivationAllocs(t *testing.T) {
	var tg string
	if n := testing.AllocsPerRun(100, func() {
		tg = TestgenKey("posix", "rename", "unlink", analyzer.Options{}, testgen.Options{})
	}); n > 1 {
		t.Errorf("TestgenKey: %v allocations, want at most 1", n)
	}
	if n := testing.AllocsPerRun(100, func() { CheckKey(tg, "sv6") }); n > 1 {
		t.Errorf("CheckKey: %v allocations, want at most 1", n)
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
// cases double as the CacheVersion discipline: entries stamped with an
// older key shape or entry encoding are never matched again.
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

	// Valid JSON under an older CacheVersion: what a bump leaves behind.
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
