package sweep

import (
	"bytes"
	"encoding/json"
	"errors"
	"log"
	"log/slog"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/analyzer"
	"repro/internal/kernel"
	"repro/internal/kernel/unix"
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

// TestCacheKeysFollowPins holds the keys to the verdict pins, pair by pair.
// Given two pin tables that differ in one line, exactly the keys that line
// covers change: a pair's corpus line moves its TESTGEN keys and the CHECK
// keys chained to them, an (Impl, pair) trace line moves that one CHECK
// key, and a pair with no line of its own (a lowest-FD posix pair outside
// "fs", any lowest-FD kv pair) moves with any line of its spec or its Impl.
// A fleet session moves with any line of its spec or kernels. A spec or
// Impl with no line at all keys the same under both tables.
func TestCacheKeysFollowPins(t *testing.T) {
	read := func(name string) string {
		data, err := os.ReadFile("../pins/" + name)
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	corpus, trace := read("corpus.digest"), read("trace.digest")
	// moved rewrites the pair line that starts with name, as -update would
	// after a change that moves it.
	moved := func(text, name string) string {
		lines := strings.SplitAfter(text, "\n")
		for j, l := range lines {
			if f := strings.Fields(l); len(f) > 2 && strings.Join(f[:len(f)-2], " ") == name {
				lines[j] = strings.Replace(l, "sha256=", "sha256=0", 1)
				return strings.Join(lines, "")
			}
		}
		t.Fatalf("no line %q", name)
		return ""
	}
	base := pins.Parse(corpus, trace)
	if TestgenKey("kv", "put", "scan", analyzer.Options{}, testgen.Options{}) !=
		testgenKey(base, pins.Key{Spec: "kv", OpA: "put", OpB: "scan"}, analyzer.Options{}, testgen.Options{}) {
		t.Fatal("pins.Current is not the table of the committed digests")
	}

	kvPut := pins.Key{Spec: "kv", OpA: "put", OpB: "scan"}
	kvGet := pins.Key{Spec: "kv", OpA: "get", OpB: "get"}
	kvFD := pins.Key{Spec: "kv", LowestFD: true, OpA: "put", OpB: "scan"}
	mmapMunmap := pins.Key{Spec: "vm", OpA: "mmap", OpB: "munmap"}
	mmapMmap := pins.Key{Spec: "vm", OpA: "mmap", OpB: "mmap"}
	sendRecv := pins.Key{Spec: "queue", OpA: "send", OpB: "recv"}
	recvRecv := pins.Key{Spec: "queue", OpA: "recv", OpB: "recv"}
	openLink := pins.Key{Spec: "posix", OpA: "open", OpB: "link"}
	openOpen := pins.Key{Spec: "posix", OpA: "open", OpB: "open"}
	noLeaf := pins.Key{Spec: "posix", LowestFD: true, OpA: "read", OpB: "read"}
	counting := pins.Key{Spec: "counting", OpA: "a", OpB: "b"}
	pairs := []pins.Key{kvPut, kvGet, kvFD, mmapMunmap, mmapMmap, sendRecv, recvRecv, openLink, openOpen, noLeaf, counting}
	impls := map[string][]string{"kv": {"memkv"}, "vm": {"memvm"}, "queue": {"memq"},
		"posix": {"linux", "sv6"}, "counting": {"counting"}}
	cell := func(pair pins.Key, impl string) pins.Key {
		pair.Impl = impl
		return pair
	}
	tgKeys := func(p pins.Table, pair pins.Key) (keys []string) {
		for _, maxPaths := range []int{0, 7} {
			a := analyzer.Options{Config: spec.Config{LowestFD: pair.LowestFD}, MaxPaths: maxPaths}
			keys = append(keys, testgenKey(p, pair, a, testgen.Options{}))
		}
		return keys
	}
	fleetKey := func(p pins.Table, sp string) string {
		return FleetSweepSpec{Spec: sp, Ops: []string{"a", "b"}, Kernels: impls[sp]}.key(p)
	}
	for _, c := range []struct {
		name  string
		table pins.Table
		tg    []pins.Key // the pairs whose TESTGEN keys move, and every CHECK key of theirs
		ck    []pins.Key // the cells whose CHECK key alone moves
		fleet string     // the spec, or an Impl, whose fleet sessions move
	}{
		{"kv corpus leaf", pins.Parse(moved(corpus, "kv/all lowestfd=false put,scan"), trace),
			[]pins.Key{kvPut, kvFD}, nil, "kv"},
		{"memkv trace leaf", pins.Parse(corpus, moved(trace, "kv/all lowestfd=false memkv put,scan")),
			nil, []pins.Key{cell(kvPut, "memkv"), cell(kvFD, "memkv")}, "memkv"},
		{"vm corpus leaf", pins.Parse(moved(corpus, "vm/all lowestfd=false mmap,munmap"), trace),
			[]pins.Key{mmapMunmap}, nil, "vm"},
		{"memq trace leaf", pins.Parse(corpus, moved(trace, "queue/all lowestfd=false memq send,recv")),
			nil, []pins.Key{cell(sendRecv, "memq")}, "memq"},
		{"posix corpus leaf", pins.Parse(moved(corpus, "posix/all lowestfd=false open,open"), trace),
			[]pins.Key{openOpen, noLeaf}, nil, "posix"},
		{"sv6 trace leaf", pins.Parse(corpus, moved(trace, "posix/all lowestfd=false sv6 open,link")),
			nil, []pins.Key{cell(openLink, "sv6"), cell(noLeaf, "sv6")}, "sv6"},
	} {
		for _, pair := range pairs {
			tgMoved := slices.Contains(c.tg, pair)
			before, after := tgKeys(base, pair), tgKeys(c.table, pair)
			for i := range before {
				if (before[i] != after[i]) != tgMoved {
					t.Errorf("%s: %+v shape %d: TESTGEN key moved=%t", c.name, pair, i, before[i] != after[i])
				}
				for _, im := range impls[pair.Spec] {
					ckMoved := checkKey(base, before[i], pair, im) != checkKey(c.table, after[i], pair, im)
					if ckMoved != (tgMoved || slices.Contains(c.ck, cell(pair, im))) {
						t.Errorf("%s: %+v shape %d: %s CHECK key moved=%t", c.name, pair, i, im, ckMoved)
					}
				}
			}
		}
		for sp, ims := range impls {
			fMoved := fleetKey(base, sp) != fleetKey(c.table, sp)
			if fMoved != (sp == c.fleet || slices.Contains(ims, c.fleet)) {
				t.Errorf("%s: fleet session of spec %s moved=%t", c.name, sp, fMoved)
			}
		}
	}

	// CheckKey addresses a cell as the sweep does, whether its pair has a
	// trace line or not; a key TestgenKey never returned takes the Impl's
	// root, as a pair with no line does.
	for _, pair := range []pins.Key{openLink, noLeaf} {
		a := analyzer.Options{Config: spec.Config{LowestFD: pair.LowestFD}}
		tg := TestgenKey(pair.Spec, pair.OpA, pair.OpB, a, testgen.Options{})
		if CheckKey(tg, "sv6") != checkKey(pins.Current, tg, pair, "sv6") {
			t.Errorf("%+v: CheckKey is not the key the sweep stores the cell under", pair)
		}
	}
	if CheckKey("unreturned", "sv6") != checkKey(pins.Current, "unreturned", noLeaf, "sv6") {
		t.Error("a key TestgenKey never returned does not take the Impl's root")
	}
}

// TestKeyDerivationAllocs holds a pair's key derivation, which a warm
// sweep pays for every pair of every request, to the allocations it costs:
// one for the address string, whether the pair has pins of its own
// (unlink, rename) or takes its spec's and Impl's (rename, unlink, an
// orientation the walk does not pin). The CacheVersion 4 keys, rendered
// through fmt, cost 11 for TestgenKey and 6 for each CheckKey.
func TestKeyDerivationAllocs(t *testing.T) {
	for _, pair := range []pins.Key{
		{Spec: "posix", OpA: "unlink", OpB: "rename"},
		{Spec: "posix", OpA: "rename", OpB: "unlink"},
	} {
		var tg string
		if n := testing.AllocsPerRun(100, func() {
			tg = testgenKey(pins.Current, pair, analyzer.Options{}, testgen.Options{})
		}); n > 1 {
			t.Errorf("%+v: TESTGEN key: %v allocations, want at most 1", pair, n)
		}
		if n := testing.AllocsPerRun(100, func() { checkKey(pins.Current, tg, pair, "sv6") }); n > 1 {
			t.Errorf("%+v: CHECK key: %v allocations, want at most 1", pair, n)
		}
	}
}

// sweepCheckKey is the key a sweep stores the sv6 or linux cell of the
// posix pair (a, b) under, at the default shape, as the exported keys
// derive it: the tests that remove or rewrite the file it names hold
// CheckKey to the sweep's own derivation.
func sweepCheckKey(a, b, kernel string) string {
	return CheckKey(TestgenKey("posix", a, b, analyzer.Options{}, testgen.Options{}), kernel)
}

// cachedTests is a nontrivial test-case slice exercising every Setup field
// that must survive the JSON round trip through the TESTGEN tier.
func cachedTests() []kernel.TestCase {
	return []kernel.TestCase{{
		ID: "open_rename_path0_test0",
		Setup: &unix.Setup{
			Files:  []unix.SetupFile{{Name: 1, Inum: 1}},
			Inodes: []unix.SetupInode{{Inum: 1, ExtraLinks: 2, Len: 1, Pages: map[int64]int64{0: 7}}},
			FDs:    []unix.SetupFD{{Proc: 1, FD: 3, Inum: 1, Off: 1}},
			Pipes:  []unix.SetupPipe{{ID: 1, Items: []int64{4, 5}}},
			VMAs:   []unix.SetupVMA{{Proc: 0, Page: 2, Anon: true, Val: 9, Writable: true}},
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

	// The ledger is the engine's, one CacheStats per sweep; its tier sum:
	s := CacheStats{TestgenHits: 1, TestgenMisses: 2, CheckHits: 3, CheckMisses: 4}
	if s.Misses() != 6 {
		t.Errorf("tier sum misses=%d, want 6", s.Misses())
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
		maxPaths: 1,
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
// contract: a failed store costs incrementality, never the sweep. Over a
// backend that refuses every write the sweep completes with the matrix a
// cacheless sweep computes, counts every failed store in CacheWriteErrors
// and in commuter_cache_write_errors_total under the backend's kind, warns
// once for the store however many of its writes fail, and leaves a rerun
// as cold as the first run.
func TestSweepSurvivesUnwritableCache(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep pipeline in -short mode")
	}
	var logged bytes.Buffer // the handler serializes its writes
	prevLogger, prevOut, prevFlags := slog.Default(), log.Writer(), log.Flags()
	slog.SetDefault(slog.New(slog.NewTextHandler(&logged, nil)))
	t.Cleanup(func() {
		slog.SetDefault(prevLogger)
		log.SetOutput(prevOut)
		log.SetFlags(prevFlags)
	})

	ops, kernels := testOps(t), testKernels()
	cacheless, err := runSweep(Config{Ops: ops, Kernels: kernels, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	store := newRefusingBackend(NewMemBackend(0), errors.New("store full"))
	written := `commuter_cache_write_errors_total{backend="` + backendKind(store) + `"}`
	wantPairs := len(ops) * (len(ops) + 1) / 2
	for _, round := range []string{"first", "rerun"} {
		before := metricValue(t, written)
		res, err := runSweep(Config{Ops: ops, Kernels: kernels, Workers: 2, Cache: store})
		if err != nil {
			t.Fatalf("%s sweep failed on unwritable cache: %v", round, err)
		}
		if len(res.Pairs) != wantPairs {
			t.Errorf("%s sweep: got %d pairs, want %d", round, len(res.Pairs), wantPairs)
		}
		// One failed testgen store plus one failed cell store per kernel,
		// per pair.
		if want := wantPairs * (1 + len(kernels)); res.CacheWriteErrors != want {
			t.Errorf("%s sweep: CacheWriteErrors=%d, want %d", round, res.CacheWriteErrors, want)
		}
		if got := metricValue(t, written) - before; got != float64(res.CacheWriteErrors) {
			t.Errorf("%s sweep: %s rose by %g, want %d", round, written, got, res.CacheWriteErrors)
		}
		// Nothing was stored, so every round is as cold as the first.
		if want := (CacheStats{TestgenMisses: wantPairs, CheckMisses: wantPairs * len(kernels)}); res.Cache != want {
			t.Errorf("%s sweep: cache traffic %+v, want %+v", round, res.Cache, want)
		}
		if got, want := stripTiming(res.Pairs), stripTiming(cacheless.Pairs); !reflect.DeepEqual(got, want) {
			t.Errorf("%s sweep diverges from the cacheless sweep\ngot  %+v\nwant %+v", round, got, want)
		}
	}
	if n := strings.Count(logged.String(), "cache writes failing"); n != 1 {
		t.Errorf("%d write-failure warnings for one store, want 1:\n%s", n, logged.String())
	}
}

// TestCachePutFailures pins that a store the directory cache cannot make
// is an error and leaves no file behind: with a directory squatting an
// entry's name the rename fails and the temp file is removed, and with the
// cache directory gone the temp file cannot be created at all.
func TestCachePutFailures(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	c, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := strings.Repeat("a", 64)
	put := func(what string) {
		t.Helper()
		if err := c.PutTests(key, cachedTests()); err == nil {
			t.Errorf("%s: PutTests succeeded", what)
		}
		if err := c.PutCell(key, KernelCell{Kernel: "linux", Total: 1}); err == nil {
			t.Errorf("%s: PutCell succeeded", what)
		}
		if _, ok := c.GetTests(key); ok {
			t.Errorf("%s: the refused tests entry hits", what)
		}
		if _, ok := c.GetCell(key); ok {
			t.Errorf("%s: the refused cell entry hits", what)
		}
	}

	for _, tier := range []string{TierTestgen, TierCheck} {
		if err := os.Mkdir(c.path(tier, key), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	put("entry names taken by directories")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !e.IsDir() {
			t.Errorf("a failed rename left %s behind", e.Name())
		}
	}

	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	put("cache directory removed")
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Errorf("a failed store recreated the cache directory: %v", err)
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

	// Third run sees the repaired cells, which serve every pair alone.
	third, err := runSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantHit := CacheStats{CheckHits: len(first.Pairs) * len(kernels)}
	if third.Cache != wantHit {
		t.Errorf("after repair: stats %+v, want %+v", third.Cache, wantHit)
	}

	// With the cells gone, a fourth run reads the repaired TESTGEN entries.
	cells, _ := filepath.Glob(filepath.Join(dir, "*.cell.json"))
	if len(cells) != len(first.Pairs)*len(kernels) {
		t.Fatalf("cache holds %d cells, want %d", len(cells), len(first.Pairs)*len(kernels))
	}
	for _, c := range cells {
		if err := os.Remove(c); err != nil {
			t.Fatal(err)
		}
	}
	fourth, err := runSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantTests := CacheStats{
		TestgenHits: len(first.Pairs),
		CheckMisses: len(first.Pairs) * len(kernels),
	}
	if fourth.Cache != wantTests {
		t.Errorf("after repair, cells removed: stats %+v, want %+v", fourth.Cache, wantTests)
	}
	if got, want := stripTiming(fourth.Pairs), stripTiming(first.Pairs); !reflect.DeepEqual(got, want) {
		t.Errorf("results from the repaired tests diverge from the first sweep\ngot  %+v\nwant %+v", got, want)
	}
}

// TestWarmPairReadsNoTests pins the read order of the two tiers: a pair
// whose every requested cell hits, agreeing on the number of tests, is
// served from its cells and never reads its TESTGEN entry; anything less
// reads the tests once and each cell at most once more.
func TestWarmPairReadsNoTests(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep pipeline in -short mode")
	}
	cache, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	backend := newCountingBackend(cache)
	ops, kernels := []*spec.Op{testOp(t, "stat"), testOp(t, "close")}, testKernels()
	cfg := Config{Ops: ops, Kernels: kernels, Workers: 2, Cache: backend}
	const pairs = 3
	cold, err := runSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cellKey := func(i int) string { return sweepCheckKey("stat", "close", kernels[i].Name) }
	// rerun sweeps cfg from fresh counts and checks its stats and GetTests
	// calls.
	rerun := func(what string, cfg Config, want CacheStats, wantGetTests int) *Result {
		t.Helper()
		backend.reset()
		res, err := runSweep(cfg)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if res.Cache != want {
			t.Errorf("%s: stats %+v, want %+v", what, res.Cache, want)
		}
		n := 0
		for _, c := range backend.getTests {
			n += c
		}
		if n != wantGetTests {
			t.Errorf("%s: %d GetTests calls, want %d", what, n, wantGetTests)
		}
		return res
	}

	warm := rerun("fully warm", cfg, CacheStats{CheckHits: pairs * len(kernels)}, 0)
	if got, want := stripTiming(warm.Pairs), stripTiming(cold.Pairs); !reflect.DeepEqual(got, want) {
		t.Errorf("warm results diverge from cold results\ngot  %+v\nwant %+v", got, want)
	}

	for i := range kernels {
		other := 1 - i
		if err := os.Remove(filepath.Join(cache.dir, cellKey(i)+".cell.json")); err != nil {
			t.Fatal(err)
		}
		what := kernels[i].Name + " cell of stat/close removed"
		res := rerun(what, cfg, CacheStats{TestgenHits: 1, CheckHits: pairs*len(kernels) - 1, CheckMisses: 1}, 1)
		if n := backend.getCells[cellKey(other)]; n != 1 {
			t.Errorf("%s: the %s cell was read %d times, want 1", what, kernels[other].Name, n)
		}
		if got, want := stripTiming(res.Pairs), stripTiming(cold.Pairs); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: results diverge from cold results\ngot  %+v\nwant %+v", what, got, want)
		}
	}

	// Cells that disagree on their test count fall back to the tests, and
	// the pair is assembled as before the read order changed: the tests'
	// count, the cells as stored.
	var edited KernelCell
	for _, p := range cold.Pairs {
		if p.OpA == "stat" && p.OpB == "close" {
			edited = p.Cells[1]
		}
	}
	edited.Total++
	data, err := EncodeCellEntry(cellKey(1), edited)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(cache.dir, cellKey(1)+".cell.json"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	res := rerun("cells disagree on Total", cfg, CacheStats{TestgenHits: 1, CheckHits: pairs * len(kernels)}, 1)
	want := stripTiming(cold.Pairs)
	for i := range want {
		want[i].Cells = slices.Clone(want[i].Cells)
		if want[i].OpA == "stat" && want[i].OpB == "close" {
			want[i].Cells[1] = edited
		}
	}
	if got := stripTiming(res.Pairs); !reflect.DeepEqual(got, want) {
		t.Errorf("cells disagree on Total: got %+v\nwant %+v", got, want)
	}

	noKernels := cfg
	noKernels.Kernels = nil
	res = rerun("no kernels", noKernels, CacheStats{TestgenHits: pairs}, pairs)
	for i, p := range res.Pairs {
		if p.Tests != cold.Pairs[i].Tests || len(p.Cells) != 0 {
			t.Errorf("no kernels: pair %s has %d tests and cells %+v, want %d tests and none",
				p.Pair(), p.Tests, p.Cells, cold.Pairs[i].Tests)
		}
	}
}

// TestCellEntryDefectsAreMisses pins what a CHECK hit must be, since a hit
// goes into the matrix without the tests it summarizes: a cell of the
// requested kernel with 0 ≤ Conflicts ≤ Total. A hand-edited entry that
// breaks one of those, under the right key and version, is a miss: the
// sweep recomputes the cell, renders the clean matrix and overwrites it.
func TestCellEntryDefectsAreMisses(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep pipeline in -short mode")
	}
	cache, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ops, kernels := []*spec.Op{testOp(t, "stat"), testOp(t, "close")}, testKernels()
	cfg := Config{Ops: ops, Kernels: kernels, Workers: 2, Cache: cache}
	clean, err := runSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	key := sweepCheckKey("stat", "close", "linux")
	stored, ok := cache.GetCell(key)
	if !ok || stored.Total == 0 {
		t.Fatalf("the linux cell of stat/close is %+v, %v; want a stored cell with tests", stored, ok)
	}
	for what, cell := range map[string]KernelCell{
		"another kernel's name": {Kernel: "sv6", Total: stored.Total, Conflicts: stored.Conflicts},
		"negative conflicts":    {Kernel: "linux", Total: stored.Total, Conflicts: -1},
		"conflicts over total":  {Kernel: "linux", Total: stored.Total, Conflicts: stored.Total + 1},
	} {
		data, err := EncodeCellEntry(key, cell)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(cache.dir, key+".cell.json"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		res, err := runSweep(cfg)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if want := (CacheStats{TestgenHits: 1, CheckHits: 5, CheckMisses: 1}); res.Cache != want {
			t.Errorf("%s: stats %+v, want %+v (the edited cell as the one miss)", what, res.Cache, want)
		}
		if got, want := stripTiming(res.Pairs), stripTiming(clean.Pairs); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: sweep computed\n%+v\nnot the clean run's\n%+v", what, got, want)
		}
		if got, ok := cache.GetCell(key); !ok || *got != *stored {
			t.Errorf("%s: the entry now holds %+v, not the recomputed %+v", what, got, stored)
		}
	}
}

// TestWarmCellReadAllocs pins what a warm dir-backend cell hit allocates:
// the cell and its kernel name. Its path, its read buffer, its decode and
// the lookup's metric label take nothing.
func TestWarmCellReadAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops buffers at random under the race detector")
	}
	c, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := sweepCheckKey("close", "close", "sv6")
	want := KernelCell{Kernel: "sv6", Total: 12, Conflicts: 3}
	if err := c.PutCell(key, want); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		if got, ok := c.GetCell(key); !ok || *got != want {
			t.Fatalf("GetCell = %+v, %v; want %+v", got, ok, want)
		}
	}); n > 2 {
		t.Errorf("a warm cell hit: %v allocations, want at most 2", n)
	}
	if n := testing.AllocsPerRun(100, func() { observeBackendGet(c, TierCheck, true) }); n != 0 {
		t.Errorf("counting a dir-backend lookup: %v allocations, want 0", n)
	}
}

// TestCellReadShortcuts holds a cell read's shortcuts to what they stand
// for: appendPath renders filepath.Join's path for every spelling of the
// directory and every key, an entry at or past the pooled buffer's length
// is read whole and hits like any other, and a key holding a NUL byte is a
// miss, as os.Open refuses its path, even where the path cut at the NUL
// names an entry for that key.
func TestCellReadShortcuts(t *testing.T) {
	for _, dir := range []string{"/tmp/c", "/tmp/c/", "/tmp//c/./", "rel", "./rel/", "rel/..", "/", "."} {
		c := &Cache{dir: dir, prefix: entryPrefix(dir)}
		for _, key := range []string{"ab12", "", ".", "..", "a/b", "../x", "a/../../y", `a\b`} {
			for _, tier := range []string{TierTestgen, TierCheck} {
				suffix := map[string]string{TierTestgen: ".tests.json", TierCheck: ".cell.json"}[tier]
				if got, want := c.path(tier, key), filepath.Join(dir, key+suffix); got != want {
					t.Errorf("dir %q key %q tier %s: path %q, want %q", dir, key, tier, got, want)
				}
			}
		}
	}

	c, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := sweepCheckKey("close", "close", "linux")
	base, _ := EncodeCellEntry(key, KernelCell{})
	bufLen := len(entryBuf{}.data)
	for _, size := range []int{bufLen - 1, bufLen, bufLen + 1, 8 * bufLen} {
		cell := KernelCell{Kernel: strings.Repeat("k", size-len(base)), Total: 5, Conflicts: 2}
		if err := c.PutCell(key, cell); err != nil {
			t.Fatal(err)
		}
		if got, ok := c.GetCell(key); !ok || *got != cell {
			t.Errorf("a %d-byte entry reads as %+v, %v", size, got, ok)
		}
	}

	nul := "k\x00x"
	data, _ := EncodeCellEntry(nul, KernelCell{Kernel: "linux", Total: 1})
	if err := os.WriteFile(filepath.Join(c.dir, "k"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	if got, ok := c.GetCell(nul); ok {
		t.Errorf("a key holding a NUL byte hits %+v", got)
	}
}
