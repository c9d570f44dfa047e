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
	files, _ := filepath.Glob(filepath.Join(cache.dir, "*"+suffix))
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
// the counts a hit must keep, 0 ≤ Conflicts ≤ Total, and a differential
// oracle for the decode without reflection: DecodeCellEntry hits or misses
// exactly as json.Unmarshal's decode (unmarshalCell) does, and with the same
// cell; canonicalCell takes nothing but bytes EncodeCellEntry writes; and
// it takes those whenever the key and kernel name are plain and the counts
// fit nine digits, so the oracle never passes on a path that never runs.
// The seeds add entries whose counts break the bounds and canonical
// entries at the edges of what the fast path takes.
func FuzzDecodeCellEntry(f *testing.F) {
	entries := queueEntries(f, ".cell.json")
	seedEntries(f, entries)
	for key, data := range entries {
		f.Add(key, bytes.Replace(data, []byte(`"conflicts": `), []byte(`"conflicts": -`), 1))
		f.Add(key, bytes.Replace(data, []byte(`"total": `), []byte(`"total": -`), 1))
		f.Add(key, bytes.Replace(data, []byte(`"conflicts": `), []byte(`"conflicts": 1`), 1))
		f.Add(key[:len(key)-1], data)
		f.Add(key, append(data[:len(data):len(data)], '\n'))
		f.Add(key, append(data[:len(data):len(data)], '}'))
	}
	key := strings.Repeat("0123456789abcdef", 4)
	for _, c := range [][3]string{
		{"linux", "0", "0"},
		{"sv6", "999999999", "999999999"},
		{"sv6", "1000000000", "0"},
		{"sv6", "2147483648", "1"},
		{"sv6", "99999999999999999999", "1"},
		{"sv6", "01", "0"},
		{"sv6", "1", "00"},
		{"sv6", "-1", "0"},
		{"sv6", "-0", "0"},
		{"sv6", "1.0", "1"},
		{"sv6", "1e2", "1"},
		{"sv6", "", "0"},
		{"", "3", "1"},
		{`li\u006eux`, "3", "1"},
		{`li\"nux`, "3", "1"},
		{"l\u00ednux", "3", "1"},
		{"l\xffnux", "3", "1"},
		{`a\u003cb`, "3", "1"},
		{"a<b", "3", "1"},
		{"a\tb", "3", "1"},
	} {
		f.Add(key, cellText(key, c[0], c[1], c[2]))
		f.Add(key[:len(key)-1], cellText(key, c[0], c[1], c[2]))
		f.Add(key+"0", cellText(key, c[0], c[1], c[2]))
	}
	f.Add("a<b", cellText("a<b", "sv6", "3", "1"))
	f.Add("a<b", cellText(`a\u003cb`, "sv6", "3", "1"))
	f.Add("a\"b", cellText(`a\"b`, "sv6", "3", "1"))
	f.Fuzz(func(t *testing.T, key string, data []byte) {
		cell, hit := DecodeCellEntry(key, data)
		full, fullHit := unmarshalCell(key, data)
		if hit != fullHit || hit && *cell != full {
			t.Fatalf("key %q: DecodeCellEntry gives %+v, %v; json.Unmarshal's decode %+v, %v\n%s", key, cell, hit, full, fullHit, data)
		}
		if fast, ok := canonicalCell(key, data); ok {
			if enc, err := EncodeCellEntry(key, fast); err != nil || !bytes.Equal(enc, data) {
				t.Fatalf("key %q: canonicalCell took bytes EncodeCellEntry does not write for %+v (%v):\n%s\nvs\n%s", key, fast, err, data, enc)
			}
		}
		if !hit {
			return
		}
		if cell.Conflicts < 0 || cell.Conflicts > cell.Total {
			t.Fatalf("hit for key %q on a cell counting %d conflicts in %d tests", key, cell.Conflicts, cell.Total)
		}
		if plain(key) && plain(cell.Kernel) && cell.Total < 1e9 {
			enc, _ := EncodeCellEntry(key, *cell)
			if fast, ok := canonicalCell(key, enc); !ok || fast != *cell {
				t.Fatalf("key %q: canonicalCell reads %+v, %v from the canonical entry of %+v:\n%s", key, fast, ok, *cell, enc)
			}
		}
		checkHit(t, key, data, *cell, EncodeCellEntry,
			func(key string, data []byte) (KernelCell, bool) {
				c, hit := DecodeCellEntry(key, data)
				if !hit {
					return KernelCell{}, false
				}
				return *c, true
			})
	})
}

// unmarshalCell is the CHECK entry decode as it stood before the fast
// path: json.Unmarshal, then the version, the key and the counts.
func unmarshalCell(key string, data []byte) (KernelCell, bool) {
	var e checkEntry
	if json.Unmarshal(data, &e) != nil || e.Version != CacheVersion || e.Key != key ||
		e.Cell.Conflicts < 0 || e.Cell.Conflicts > e.Cell.Total {
		return KernelCell{}, false
	}
	return e.Cell, true
}

// cellText is a CHECK entry laid out as EncodeCellEntry lays one out, with
// the key, the kernel name and the counts written in as given: raw, so a
// seed can hold what json.Marshal would never write there.
func cellText(key, kernel, total, conflicts string) []byte {
	return []byte(cellHead + key + cellKernel + kernel + cellTotal + total + cellConflicts + conflicts + cellTail)
}
