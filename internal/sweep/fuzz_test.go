package sweep

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/queuespec"
)

// queueEntries sweeps the queue spec (15 pairs, well under a second) over
// a fresh directory cache and returns the entry files one tier wrote: the
// fuzz targets' real seeds, keyed as the cache keyed them.
func queueEntries(f *testing.F, suffix string) map[string][]byte {
	f.Helper()
	cache, err := OpenCache(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	if _, err := runSweep(Config{Spec: queuespec.Spec, Ops: queuespec.Spec.Ops(),
		Kernels: queuespec.Spec.Impls(), Cache: cache}); err != nil {
		f.Fatal(err)
	}
	files, _ := filepath.Glob(filepath.Join(cache.Dir(), "*"+suffix))
	if len(files) == 0 {
		f.Fatalf("the queue sweep stored no %s entries", suffix)
	}
	out := map[string][]byte{}
	for _, file := range files {
		data, err := os.ReadFile(file)
		if err != nil {
			f.Fatal(err)
		}
		out[strings.TrimSuffix(filepath.Base(file), suffix)] = data
	}
	return out
}

// seedEntries adds each real entry under its own key, and the edits a disk
// or a peer can make of it: truncations, another version, another key in
// the body, the right body under another key.
func seedEntries(f *testing.F, entries map[string][]byte) {
	for key, data := range entries {
		f.Add(key, data)
		f.Add(key, data[:len(data)/2])
		f.Add(key, data[:len(data)-2])
		f.Add(key, bytes.Replace(data, fmt.Appendf(nil, `"version": %d`, CacheVersion), []byte(`"version": 0`), 1))
		f.Add(key, bytes.Replace(data, []byte(key), []byte(strings.Repeat("0", len(key))), 1))
		f.Add(strings.Repeat("f", len(key)), data)
	}
}

// checkHit is what both targets hold a hit to, whatever the bytes: the
// entry names this key and this CacheVersion (read by a decoder of the
// header alone), the same bytes miss under any other key, and the value
// survives its own canonical encoding — decode(encode(v)) encodes as v does.
func checkHit[T any](t *testing.T, key string, data []byte, v T,
	encode func(string, T) ([]byte, error), decode func(string, []byte) (T, bool)) {
	t.Helper()
	var hdr struct {
		Version int    `json:"version"`
		Key     string `json:"key"`
	}
	if err := json.Unmarshal(data, &hdr); err != nil || hdr.Version != CacheVersion || hdr.Key != key {
		t.Fatalf("hit for key %q on an entry stamped version %d key %q (%v)", key, hdr.Version, hdr.Key, err)
	}
	if _, hit := decode(key+"0", data); hit {
		t.Fatalf("entry for %q also hits under %q", key, key+"0")
	}
	enc, err := encode(key, v)
	if err != nil {
		t.Fatalf("a decoded value does not encode: %v", err)
	}
	v2, hit := decode(key, enc)
	if !hit {
		t.Fatalf("re-encoded entry misses under its own key:\n%s", enc)
	}
	if enc2, err := encode(key, v2); err != nil || !bytes.Equal(enc, enc2) {
		t.Fatalf("value changed across encode/decode (%v):\n%s\nvs\n%s", err, enc, enc2)
	}
}

// FuzzDecodeTestsEntry: any bytes under any key are a miss or a hit
// checkHit accepts — never a panic, never a hit under another key or
// CacheVersion.
func FuzzDecodeTestsEntry(f *testing.F) {
	seedEntries(f, queueEntries(f, ".tests.json"))
	f.Fuzz(func(t *testing.T, key string, data []byte) {
		if tests, hit := DecodeTestsEntry(key, data); hit {
			checkHit(t, key, data, tests, EncodeTestsEntry, DecodeTestsEntry)
		}
	})
}

// FuzzDecodeCellEntry is FuzzDecodeTestsEntry for the CHECK tier, plus
// the counts a hit must keep: 0 ≤ Conflicts ≤ Total. The seeds add entries
// whose counts break them.
func FuzzDecodeCellEntry(f *testing.F) {
	entries := queueEntries(f, ".cell.json")
	seedEntries(f, entries)
	for key, data := range entries {
		f.Add(key, bytes.Replace(data, []byte(`"conflicts": `), []byte(`"conflicts": -`), 1))
		f.Add(key, bytes.Replace(data, []byte(`"total": `), []byte(`"total": -`), 1))
		f.Add(key, bytes.Replace(data, []byte(`"conflicts": `), []byte(`"conflicts": 1`), 1))
	}
	f.Fuzz(func(t *testing.T, key string, data []byte) {
		if cell, hit := DecodeCellEntry(key, data); hit {
			if cell.Conflicts < 0 || cell.Conflicts > cell.Total {
				t.Fatalf("hit for key %q on a cell counting %d conflicts in %d tests", key, cell.Conflicts, cell.Total)
			}
			checkHit(t, key, data, *cell, EncodeCellEntry,
				func(key string, data []byte) (KernelCell, bool) {
					c, hit := DecodeCellEntry(key, data)
					if !hit {
						return KernelCell{}, false
					}
					return *c, true
				})
		}
	})
}
