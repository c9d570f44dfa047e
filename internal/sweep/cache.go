// On-disk sweep cache, split along the pipeline's phase boundary into two
// tiers of content-addressed JSON files:
//
//   - The TESTGEN tier stores the generated test cases of one pair, keyed
//     by the pair and every analyzer/testgen option that shapes them. The
//     key deliberately excludes the kernel set: ANALYZE and TESTGEN never
//     look at an implementation, so the (dominant) symbolic work is shared
//     across every kernel selection.
//   - The CHECK tier stores one kernel's aggregate cell for one pair, keyed
//     by the TESTGEN key plus the kernel name. The testgen key pins the
//     exact test slice the cell was computed from, so a cell hit never has
//     to re-read or re-validate the tests it summarizes.
//
// A `-kernel sv6` rerun after a `-kernel both` sweep therefore hits both
// tiers and runs nothing, and adding a new kernel reruns only CHECK against
// the cached tests.
package sweep

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/analyzer"
	"repro/internal/kernel"
	"repro/internal/symx"
	"repro/internal/testgen"
)

// CacheVersion stamps every key and entry. Bump it whenever the model,
// analyzer, testgen or checker semantics change, so stale results from an
// older code version are recomputed instead of trusted. Version 2
// introduced the two-tier layout; version 3 accompanies the hash-consed
// symbolic engine (canonicalization changed the shape of generated
// conditions, and with them the test sets entries store); version 4
// accompanies the pluggable spec layer — keys now fold in the spec name,
// so specs sharing one cache directory can never serve each other's
// entries. Older-version entries are simply never matched again.
const CacheVersion = 4

// TestgenKey derives the content address of the kernel-independent phase:
// the test cases ANALYZE → TESTGEN produces for one pair of the named
// spec. The encoding is an explicit field-by-field string (not struct
// marshaling) so the key is stable across runs and robust to field
// reordering; solvers are deliberately excluded because complete results
// don't depend on them, and incomplete (budget-truncated) results are
// never stored (see runPair). Zero-value options are normalized to the
// defaults the pipeline applies (keyCaps), so semantically identical
// configurations share cache entries. The lowest-FD setting is rendered
// twice, under the names of the two knobs it used to be, so the addresses
// of existing entries do not move.
func TestgenKey(specName, opA, opB string, aOpt analyzer.Options, gOpt testgen.Options) string {
	maxPaths, perPath := keyCaps(aOpt.MaxPaths, gOpt.MaxTestsPerPath)
	var b strings.Builder
	fmt.Fprintf(&b, "v%d|tier=testgen|spec=%s|pair=%s,%s", CacheVersion, specName, opA, opB)
	fmt.Fprintf(&b, "|model.lowestfd=%v", aOpt.Config.LowestFD)
	fmt.Fprintf(&b, "|analyzer.maxpaths=%d", maxPaths)
	fmt.Fprintf(&b, "|testgen.maxtestsperpath=%d", perPath)
	fmt.Fprintf(&b, "|testgen.lowestfd=%v", aOpt.Config.LowestFD)
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:])
}

// keyCaps resolves the two test-shaping caps as the pipeline does — zero
// means the default — for the content addresses that fold them in.
func keyCaps(maxPaths, perPath int) (int, int) {
	if maxPaths == 0 {
		maxPaths = symx.DefaultMaxPaths
	}
	if perPath == 0 {
		perPath = testgen.DefaultMaxTestsPerPath
	}
	return maxPaths, perPath
}

// CheckKey derives the content address of one kernel's CHECK cell from the
// TESTGEN key of the tests it ran and the kernel's name. Chaining through
// the testgen key means every input that moves the tests moves the cell
// key too, without restating them.
func CheckKey(testgenKey, kernelName string) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("v%d|tier=check|testgen=%s|kernel=%s",
		CacheVersion, testgenKey, kernelName)))
	return hex.EncodeToString(sum[:])
}

// CacheStats counts one sweep's hit/miss outcomes per tier (Result.Cache).
// The tags are its wire form (api.CacheStats).
type CacheStats struct {
	TestgenHits   int `json:"testgen_hits"`
	TestgenMisses int `json:"testgen_misses"`
	CheckHits     int `json:"check_hits"`
	CheckMisses   int `json:"check_misses"`
}

// Hits sums hits across both tiers.
func (s CacheStats) Hits() int { return s.TestgenHits + s.CheckHits }

// Misses sums misses across both tiers.
func (s CacheStats) Misses() int { return s.TestgenMisses + s.CheckMisses }

// Cache is a directory of two-tier entry files. It is safe for concurrent
// use by the sweep workers; distinct keys never contend on the filesystem
// because each lives in its own file, written atomically.
type Cache struct {
	entryCodec
	dir string
}

// testgenEntry is the TESTGEN tier's on-disk format: the serialized test
// cases of one pair. TestCase is plain data (ID, Setup, Calls), so it
// JSON-round-trips exactly. Version and Key are stored redundantly with
// the filename so a mismatched or truncated file is detected and treated
// as a miss rather than trusted.
type testgenEntry struct {
	Version int               `json:"version"`
	Key     string            `json:"key"`
	Tests   []kernel.TestCase `json:"tests"`
}

// checkEntry is the CHECK tier's on-disk format: one kernel's cell for the
// tests named by the entry's (testgen-derived) key.
type checkEntry struct {
	Version int        `json:"version"`
	Key     string     `json:"key"`
	Cell    KernelCell `json:"cell"`
}

// staleTempAge is how old an orphaned temp file must be before OpenCache
// reclaims it. The threshold keeps the cleanup from racing a concurrent
// sweep process that is mid-Put in the same cache directory.
const staleTempAge = time.Hour

// OpenCache opens (creating if needed) the cache rooted at dir. Temp files
// orphaned by a sweep killed mid-store are swept out (once they're old
// enough to clearly not belong to a live sweep) so they can't accumulate
// across interrupted runs. The cleanup is best-effort — it can never fail
// the open — and a temp file it could not remove is logged once instead of
// being silently dropped.
func OpenCache(dir string) (*Cache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("sweep: open cache: %w", err)
	}
	// Glob fails only on a malformed pattern (a dir holding glob
	// metacharacters); that skips the cleanup and is reported like a file
	// that would not go.
	stale, firstErr := filepath.Glob(filepath.Join(dir, "*.tmp*"))
	failed := 0
	for _, p := range stale {
		fi, err := os.Stat(p)
		if err != nil {
			continue // vanished under us: someone else's cleanup won
		}
		if time.Since(fi.ModTime()) <= staleTempAge {
			continue // plausibly a live sweep's in-progress store
		}
		if err := os.Remove(p); err != nil {
			if failed++; firstErr == nil {
				firstErr = err
			}
		}
	}
	if firstErr != nil {
		slog.Warn("sweep: stale cache temp files could not be removed",
			"dir", dir, "files", failed, "err", firstErr)
	}
	c := &Cache{dir: dir}
	c.entryCodec = entryCodec{c}
	return c, nil
}

// Dir returns the cache's root directory.
func (c *Cache) Dir() string { return c.dir }

// path gives the tiers distinct filename suffixes so a cache directory is
// inspectable by eye; the keys alone would already be distinct (each tier
// hashes its tier name).
func (c *Cache) path(tier, key string) string {
	if tier == TierTestgen {
		return filepath.Join(c.dir, key+".tests.json")
	}
	return filepath.Join(c.dir, key+".cell.json")
}

// get reads one entry file; a missing or unreadable file is a miss.
func (c *Cache) get(tier, key string) ([]byte, bool) {
	data, err := os.ReadFile(c.path(tier, key))
	return data, err == nil
}

// put writes one entry file through a temp file and rename, so a crashed
// or concurrent sweep can never leave a half-written entry that parses.
func (c *Cache) put(tier, key string, data []byte) error {
	tmp, err := os.CreateTemp(c.dir, key+".tmp*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), c.path(tier, key)); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}

// The entry codecs are the single source of the on-disk (and cache-route
// wire) bytes: the disk backend writes exactly these encodings, the HTTP
// backend and the server's /v1/cache routes ship them verbatim, and every
// consumer validates with the same decode. An entry carries its version
// and key, so a decode failure anywhere — stale version from an older
// binary, a file copied under the wrong name, a truncated body — is a
// miss, never a wrong answer.

// EncodeTestsEntry renders a TESTGEN tier entry in its canonical form.
func EncodeTestsEntry(key string, tests []kernel.TestCase) ([]byte, error) {
	return json.MarshalIndent(testgenEntry{Version: CacheVersion, Key: key, Tests: tests}, "", "\t")
}

// DecodeTestsEntry parses and validates a TESTGEN tier entry; any defect
// reports a miss (false).
func DecodeTestsEntry(key string, data []byte) ([]kernel.TestCase, bool) {
	var e testgenEntry
	if json.Unmarshal(data, &e) != nil || e.Version != CacheVersion || e.Key != key {
		return nil, false
	}
	return e.Tests, true
}

// EncodeCellEntry renders a CHECK tier entry in its canonical form.
func EncodeCellEntry(key string, cell KernelCell) ([]byte, error) {
	return json.MarshalIndent(checkEntry{Version: CacheVersion, Key: key, Cell: cell}, "", "\t")
}

// DecodeCellEntry parses and validates a CHECK tier entry; any defect
// reports a miss (nil, false).
func DecodeCellEntry(key string, data []byte) (*KernelCell, bool) {
	var e checkEntry
	if json.Unmarshal(data, &e) != nil || e.Version != CacheVersion || e.Key != key {
		return nil, false
	}
	return &e.Cell, true
}

// byteStore is a backend that keeps entries as their encoded bytes: a
// directory of files, a peer's cache routes.
type byteStore interface {
	get(tier, key string) ([]byte, bool)
	put(tier, key string, data []byte) error
}

// entryCodec gives a byteStore the typed tier methods of Backend, so the
// pairing of a tier with its codec is written once. Stored entries are
// complete by construction — budget-truncated results are never written
// (see runPair) — so a hit always carries a definitive value. Any defect
// — absent entry, unparsable JSON, version or key mismatch — is a miss: the
// sweep recomputes and overwrites, never fails.
type entryCodec struct{ byteStore }

func (e entryCodec) GetTests(key string) ([]kernel.TestCase, bool) {
	data, fetched := e.get(TierTestgen, key)
	if !fetched {
		return nil, false
	}
	return DecodeTestsEntry(key, data)
}

func (e entryCodec) PutTests(key string, tests []kernel.TestCase) error {
	data, err := EncodeTestsEntry(key, tests)
	if err != nil {
		return err
	}
	return e.put(TierTestgen, key, data)
}

func (e entryCodec) GetCell(key string) (*KernelCell, bool) {
	data, fetched := e.get(TierCheck, key)
	if !fetched {
		return nil, false
	}
	return DecodeCellEntry(key, data)
}

func (e entryCodec) PutCell(key string, cell KernelCell) error {
	data, err := EncodeCellEntry(key, cell)
	if err != nil {
		return err
	}
	return e.put(TierCheck, key, data)
}

// Ready probes whether the cache directory is still writable — the
// readiness signal `commuter serve`'s /healthz reports. The error message
// keeps the "cache not writable" phrasing health-check consumers match on.
func (c *Cache) Ready() error {
	f, err := os.CreateTemp(c.dir, ".ready-*")
	if err != nil {
		return fmt.Errorf("sweep cache not writable: %w", err)
	}
	name := f.Name()
	f.Close()
	os.Remove(name)
	return nil
}

// String identifies the backend in logs, metrics labels and the -cache
// URL syntax.
func (c *Cache) String() string { return "dir:" + c.dir }
