// On-disk sweep cache, split along the pipeline's phase boundary into two
// tiers of content-addressed JSON files:
//
//   - The TESTGEN tier stores the generated test cases of one pair, keyed
//     by the pair, every analyzer/testgen option that shapes them and the
//     pair's corpus pin. The key deliberately excludes the kernel set:
//     ANALYZE and TESTGEN never look at an implementation, so the
//     (dominant) symbolic work is shared across every kernel selection.
//   - The CHECK tier stores one kernel's aggregate cell for one pair, keyed
//     by the TESTGEN key plus the kernel's name and its trace pin for the
//     pair. The testgen key pins the exact test slice the cell was computed
//     from, so a cell hit never has to re-read or re-validate the tests it
//     summarizes.
//
// A sweep reads the CHECK tier first: a pair whose every requested cell
// hits, and whose cells agree on the number of tests, is served from them
// and never opens its TESTGEN entry. A `-kernel sv6` rerun after a
// `-kernel both` sweep therefore reads one cell per pair and runs nothing,
// and adding a new kernel reads the cached tests and reruns only that
// kernel's CHECK.
//
// A warm rerun is mostly cell reads, so a cell's read path is short. Its
// file path is rendered into a pooled buffer, and the file is read into
// another with one open, one read and one close (readEntry); an entry that
// does not fit the buffer is read whole, as a TESTGEN entry always is. The
// bytes EncodeCellEntry writes decode without reflection, and every other
// input takes the full JSON decode, with the same hit or miss. The disk
// stays the only copy: nothing read is kept past the call.
package sweep

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/analyzer"
	"repro/internal/kernel"
	"repro/internal/pins"
	"repro/internal/symx"
	"repro/internal/testgen"
)

// CacheVersion stamps every key and entry. It changes only with the key
// shape or the entry encoding: what a key covers of the code is its
// verdict pins (internal/pins), so a change that moves a verdict re-keys
// the entries it covers when TestCorpusDigest -update rewrites the pin.
// Version 7 is the first that folds in a pair's own pins; entries of an
// older version are never matched again.
const CacheVersion = 7

// TestgenKey derives the content address of the kernel-independent phase:
// the test cases ANALYZE → TESTGEN produces for one pair of the named
// spec. It folds in the pair, the options that shape the tests
// (appendShape) and the pair's corpus pin (pins.Table.Pin), but no solver:
// only complete results, which do not depend on one, are stored (runPair).
func TestgenKey(specName, opA, opB string, aOpt analyzer.Options, gOpt testgen.Options) string {
	pair := pins.Key{Spec: specName, LowestFD: aOpt.Config.LowestFD, OpA: opA, OpB: opB}
	key := testgenKey(pins.Current, pair, aOpt, gOpt)
	keyedPairs.Store(key, pair)
	return key
}

var keyedPairs sync.Map // each key TestgenKey returned → its pins.Key

func testgenKey(p pins.Table, pair pins.Key, aOpt analyzer.Options, gOpt testgen.Options) string {
	var buf [160]byte
	b := renderKey(buf[:0], "|tier=testgen|spec=", pair.Spec, "|pair=", pair.OpA, ",", pair.OpB)
	b = appendShape(b, aOpt.Config.LowestFD, aOpt.MaxPaths, gOpt.MaxTestsPerPath)
	return hashKey(append(b, p.Pin(pair)...))
}

// CheckKey is checkKey for the pair TestgenKey returned testgenKey for, so
// the key a sweep stores the cell under; else it folds in the Impl's root.
func CheckKey(testgenKey, kernelName string) string {
	pair, _ := keyedPairs.Load(testgenKey)
	k, _ := pair.(pins.Key)
	return checkKey(pins.Current, testgenKey, k, kernelName)
}

// checkKey derives the content address of impl's CHECK cell of pair from
// the TESTGEN key of its tests, impl and its trace pin. Chaining through the
// testgen key moves the cell key with every input that moves the tests.
func checkKey(p pins.Table, testgenKey string, pair pins.Key, impl string) string {
	var buf [160]byte
	pair.Impl = impl
	return hashKey(renderKey(buf[:0], "|tier=check|testgen=", testgenKey, "|kernel=", impl, p.Pin(pair)))
}

// renderKey starts a key's rendering: the cache version, then parts.
func renderKey(b []byte, parts ...string) []byte {
	b = strconv.AppendInt(append(b, 'v'), CacheVersion, 10)
	for _, part := range parts {
		b = append(b, part...)
	}
	return b
}

// appendShape renders the options that shape a pair's tests, for
// TestgenKey and the fleet session key alike: the lowest-FD rule and the
// two caps, zero resolved to the default as the pipeline resolves it, so
// semantically identical configurations share one address.
func appendShape(b []byte, lowestFD bool, maxPaths, perPath int) []byte {
	if maxPaths == 0 {
		maxPaths = symx.DefaultMaxPaths
	}
	if perPath == 0 {
		perPath = testgen.DefaultMaxTestsPerPath
	}
	b = strconv.AppendBool(append(b, "|lowestfd="...), lowestFD)
	b = strconv.AppendInt(append(b, "|maxpaths="...), int64(maxPaths), 10)
	return strconv.AppendInt(append(b, "|perpath="...), int64(perPath), 10)
}

// hashKey is the address of a key's rendering: its SHA-256, in hex.
func hashKey(b []byte) string {
	sum := sha256.Sum256(b)
	var out [2 * sha256.Size]byte
	hex.Encode(out[:], sum[:])
	return string(out[:])
}

// CacheStats counts one sweep's hit/miss outcomes per tier (Result.Cache).
// The tags are its wire form (api.CacheStats).
type CacheStats struct {
	TestgenHits   int `json:"testgen_hits"`
	TestgenMisses int `json:"testgen_misses"`
	CheckHits     int `json:"check_hits"`
	CheckMisses   int `json:"check_misses"`
}

// Misses sums misses across both tiers.
func (s CacheStats) Misses() int { return s.TestgenMisses + s.CheckMisses }

// Cache is a directory of two-tier entry files. It is safe for concurrent
// use by the sweep workers; distinct keys never contend on the filesystem
// because each lives in its own file, written atomically.
type Cache struct {
	entryCodec
	dir string
	// name is String's rendering and prefix entryPrefix's, both rendered
	// once, at open.
	name, prefix string
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
	c := &Cache{dir: dir, name: "dir:" + dir, prefix: entryPrefix(dir)}
	c.entryCodec = entryCodec{c}
	return c, nil
}

// entryPrefix is what filepath.Join puts before a file name in dir: the
// directory cleaned, and a separator unless it is the working directory.
// Join cleans a name with no separator the same whatever it is, so "x"
// stands for every entry's name.
func entryPrefix(dir string) string {
	return strings.TrimSuffix(filepath.Join(dir, "x"), "x")
}

// path gives the tiers distinct filename suffixes so a cache directory is
// inspectable by eye; the keys alone would already be distinct (each tier
// hashes its tier name).
func (c *Cache) path(tier, key string) string {
	return string(c.appendPath(nil, tier, key))
}

// appendPath appends key's entry file in tier to b: filepath.Join of the
// directory and the file name, concatenated from the prefix OpenCache
// cleaned when the name holds no separator for Join to clean.
func (c *Cache) appendPath(b []byte, tier, key string) []byte {
	suffix := ".cell.json"
	if tier == TierTestgen {
		suffix = ".tests.json"
	}
	if strings.ContainsRune(key, '/') || strings.ContainsRune(key, filepath.Separator) {
		return append(b, filepath.Join(c.dir, key+suffix)...)
	}
	return append(append(append(b, c.prefix...), key...), suffix...)
}

// get reads one entry file; a missing or unreadable file is a miss.
func (c *Cache) get(tier, key string) ([]byte, bool) {
	data, err := os.ReadFile(c.path(tier, key))
	return data, err == nil
}

// entryBuf is a cell read's scratch: the entry file's path and its bytes.
// A canonical cell entry is at most about 180 bytes with a short kernel
// name; the path holds the directory, 64 bytes of key and a suffix.
type entryBuf struct {
	path [256]byte
	data [512]byte
}

var entryBufs = sync.Pool{New: func() any { return new(entryBuf) }}

// GetCell reads key's CHECK entry into a pooled buffer and decodes it
// there; the buffer goes back to the pool when the call returns, since
// DecodeCellEntry keeps nothing of the bytes.
func (c *Cache) GetCell(key string) (*KernelCell, bool) {
	buf := entryBufs.Get().(*entryBuf)
	defer entryBufs.Put(buf)
	n, err := readEntry(c.appendPath(buf.path[:0], TierCheck, key), buf.data[:])
	switch {
	case err != nil:
		return nil, false
	case n < len(buf.data):
		return DecodeCellEntry(key, buf.data[:n])
	}
	return c.entryCodec.GetCell(key) // does not fit: read the whole file
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
// reports a miss (nil, false). A cell counts tests, so one whose counts
// break 0 ≤ Conflicts ≤ Total is a defect too: a sweep serves a hit
// straight into the matrix, without the tests it summarizes.
//
// The bytes EncodeCellEntry writes for key decode without reflection
// (canonicalCell). Any other input takes json.Unmarshal, so whether it
// hits, and with what cell, is what the full decode makes of it.
func DecodeCellEntry(key string, data []byte) (*KernelCell, bool) {
	cell, ok := canonicalCell(key, data)
	if !ok {
		var e checkEntry
		if json.Unmarshal(data, &e) != nil || e.Version != CacheVersion || e.Key != key {
			return nil, false
		}
		cell = e.Cell
	}
	if cell.Conflicts < 0 || cell.Conflicts > cell.Total {
		return nil, false
	}
	return &cell, true
}

// The bytes EncodeCellEntry writes around the key, the kernel name and the
// two counts.
var cellHead = `{
	"version": ` + strconv.Itoa(CacheVersion) + `,
	"key": "`

const (
	cellKernel = `",
	"cell": {
		"kernel": "`
	cellTotal = `",
		"total": `
	cellConflicts = `,
		"conflicts": `
	cellTail = `
	}
}`
)

// canonicalCell reports whether data is exactly what EncodeCellEntry
// writes for key and some cell, and if so that cell, read without
// reflection. It takes only what it can read unambiguously: a key and a
// kernel name of printable ASCII that json.Marshal writes unescaped, and
// counts of at most nine digits, which fit an int everywhere. Any other
// input is left to json.Unmarshal.
func canonicalCell(key string, data []byte) (KernelCell, bool) {
	var cell KernelCell
	rest, ok := cutLiteral(data, cellHead)
	if !ok || !plain(key) {
		return cell, false
	}
	if rest, ok = cutLiteral(rest, key); !ok {
		return cell, false
	}
	if rest, ok = cutLiteral(rest, cellKernel); !ok {
		return cell, false
	}
	n := bytes.IndexByte(rest, '"')
	if n < 0 || !plain(string(rest[:n])) {
		return cell, false
	}
	name := rest[:n]
	if rest, ok = cutLiteral(rest[n:], cellTotal); !ok {
		return cell, false
	}
	if cell.Total, rest, ok = cutCount(rest); !ok {
		return cell, false
	}
	if rest, ok = cutLiteral(rest, cellConflicts); !ok {
		return cell, false
	}
	if cell.Conflicts, rest, ok = cutCount(rest); !ok || string(rest) != cellTail {
		return cell, false
	}
	cell.Kernel = string(name)
	return cell, true
}

// cutLiteral returns b after its prefix lit, if b starts with lit.
func cutLiteral(b []byte, lit string) ([]byte, bool) {
	if len(b) < len(lit) || string(b[:len(lit)]) != lit {
		return nil, false
	}
	return b[len(lit):], true
}

// plain reports whether json.Marshal writes s as it is: printable ASCII
// with no quote, backslash or HTML character to escape.
func plain(s string) bool {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c < 0x20 || c > 0x7e, c == '"', c == '\\', c == '<', c == '>', c == '&':
			return false
		}
	}
	return true
}

// cutCount reads the count b starts with as json.Marshal writes a
// non-negative int: "0", or one to nine digits with no leading zero.
func cutCount(b []byte) (int, []byte, bool) {
	n, v := 0, 0
	for n < len(b) && n < 10 && '0' <= b[n] && b[n] <= '9' {
		v = v*10 + int(b[n]-'0')
		n++
	}
	if n == 0 || n > 9 || (n > 1 && b[0] == '0') {
		return 0, nil, false
	}
	return v, b[n:], true
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
//
// Every cell decodes through DecodeCellEntry: the canonical bytes without
// reflection, any other input through json.Unmarshal, with the hit or miss
// that decode gives. Its get reads a whole entry; the directory's own
// GetCell reads a cell into a pooled buffer first and comes here only for
// an entry that does not fit it.
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
func (c *Cache) String() string { return c.name }
