package sweep

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/kernel"
)

func TestOpenBackendParsing(t *testing.T) {
	dir := t.TempDir()
	cases := []struct {
		spec string
		want string // expected String() of the opened backend
	}{
		{dir, "dir:" + dir},
		{"dir:" + dir, "dir:" + dir},
		{"mem", fmt.Sprintf("mem:%d", defaultMemEntries)},
		{"mem:", fmt.Sprintf("mem:%d", defaultMemEntries)},
		{"mem:16", "mem:16"},
		{"http://127.0.0.1:9", "http://127.0.0.1:9"},
		{"https://cache.example", "https://cache.example"},
		{"mem:8,http://127.0.0.1:9", "tiered(mem:8,http://127.0.0.1:9)"},
		{"mem:8,http://127.0.0.1:9,dir:" + dir,
			"tiered(mem:8,tiered(http://127.0.0.1:9,dir:" + dir + "))"},
	}
	for _, tc := range cases {
		b, err := OpenBackend(tc.spec)
		if err != nil {
			t.Errorf("OpenBackend(%q): %v", tc.spec, err)
			continue
		}
		if got := b.String(); got != tc.want {
			t.Errorf("OpenBackend(%q).String() = %q, want %q", tc.spec, got, tc.want)
		}
	}

	for _, bad := range []string{"", "mem:0", "mem:x", "mem:-3", "ftp://nope", ",", "mem:8,"} {
		if b, err := OpenBackend(bad); err == nil {
			t.Errorf("OpenBackend(%q) = %v, want error", bad, b)
		}
	}
}

func TestMemBackendLRU(t *testing.T) {
	m := NewMemBackend(2)
	tests := cachedTests()
	keys := []string{
		strings.Repeat("1", 64),
		strings.Repeat("2", 64),
		strings.Repeat("3", 64),
	}
	for _, k := range keys[:2] {
		if err := m.PutTests(k, tests); err != nil {
			t.Fatal(err)
		}
	}
	// Touch the oldest so the middle entry becomes the eviction victim.
	if _, ok := m.GetTests(keys[0]); !ok {
		t.Fatalf("missing %s", keys[0])
	}
	if err := m.PutTests(keys[2], tests); err != nil {
		t.Fatal(err)
	}
	if n := m.order.Len(); n != 2 {
		t.Fatalf("%d entries after eviction, want 2", n)
	}
	if _, ok := m.GetTests(keys[1]); ok {
		t.Error("LRU victim survived the eviction")
	}
	for _, k := range []string{keys[0], keys[2]} {
		got, ok := m.GetTests(k)
		if !ok {
			t.Fatalf("lost %s", k)
		}
		if !reflect.DeepEqual(got, tests) {
			t.Errorf("entry %s round-tripped mutated", k)
		}
	}

	// The CHECK tier shares the LRU but not the key space, and hands back
	// copies so callers cannot mutate the stored cell.
	m2 := NewMemBackend(4)
	cell := KernelCell{Kernel: "linux", Total: 5, Conflicts: 2}
	if err := m2.PutCell(keys[0], cell); err != nil {
		t.Fatal(err)
	}
	if _, ok := m2.GetTests(keys[0]); ok {
		t.Error("cell entry answered a tests lookup")
	}
	got, ok := m2.GetCell(keys[0])
	if !ok || *got != cell {
		t.Fatalf("GetCell = %v, %v", got, ok)
	}
	got.Conflicts = 99
	if again, _ := m2.GetCell(keys[0]); again.Conflicts != 2 {
		t.Error("mutating a returned cell changed the stored entry")
	}

	if err := m2.Ready(); err != nil {
		t.Errorf("Ready() = %v", err)
	}
}

func TestTieredBackfillAndWriteThrough(t *testing.T) {
	fast, slow := NewMemBackend(8), NewMemBackend(8)
	tb := Tiered(fast, slow)
	key := strings.Repeat("a", 64)
	tests := cachedTests()
	cell := KernelCell{Kernel: "sv6", Total: 3}

	// Write-through: both tiers hold the entry after one Put.
	if err := tb.PutTests(key, tests); err != nil {
		t.Fatal(err)
	}
	if err := tb.PutCell(key, cell); err != nil {
		t.Fatal(err)
	}
	for name, tier := range map[string]*MemBackend{"fast": fast, "slow": slow} {
		if _, ok := tier.GetTests(key); !ok {
			t.Errorf("%s tier missing tests entry after write-through", name)
		}
		if _, ok := tier.GetCell(key); !ok {
			t.Errorf("%s tier missing cell entry after write-through", name)
		}
	}

	// Backfill: an entry only the slow tier holds lands in the fast tier
	// after the first read.
	key2 := strings.Repeat("b", 64)
	if err := slow.PutTests(key2, tests); err != nil {
		t.Fatal(err)
	}
	if _, ok := tb.GetTests(key2); !ok {
		t.Fatal("slow-tier entry missed through the stack")
	}
	if _, ok := fast.GetTests(key2); !ok {
		t.Error("slow-tier hit was not backfilled into the fast tier")
	}

	if _, ok := tb.GetTests(strings.Repeat("c", 64)); ok {
		t.Fatal("phantom hit")
	}
}

// refusingBackend is inner with every store refused: PutTests, PutCell
// and Ready fail with err, reads go to inner. Its String names the handle
// alone (kind "refusing"), so its write-error metric and its once-per-store
// warning are its own.
type refusingBackend struct {
	Backend
	err  error
	name string
}

var refusingSeq atomic.Int64

func newRefusingBackend(inner Backend, err error) *refusingBackend {
	return &refusingBackend{Backend: inner, err: err, name: fmt.Sprintf("refusing:%d", refusingSeq.Add(1))}
}

func (b *refusingBackend) PutTests(string, []kernel.TestCase) error { return b.err }
func (b *refusingBackend) PutCell(string, KernelCell) error         { return b.err }
func (b *refusingBackend) Ready() error                             { return b.err }
func (b *refusingBackend) String() string                           { return b.name }

// TestTieredBackendReady pins that a stack is ready only when both tiers
// are, and that a failing tier surfaces its own error: the fast tier's
// when both fail, since it is probed first.
func TestTieredBackendReady(t *testing.T) {
	errFast, errSlow := errors.New("fast tier full"), errors.New("slow tier unreachable")
	fast, slow := newRefusingBackend(NewMemBackend(8), errFast), newRefusingBackend(NewMemBackend(8), errSlow)
	for _, tc := range []struct {
		name       string
		fast, slow Backend
		want       error
	}{
		{"both ready", NewMemBackend(8), NewMemBackend(8), nil},
		{"fast tier failing", fast, NewMemBackend(8), errFast},
		{"slow tier failing", NewMemBackend(8), slow, errSlow},
		{"both failing", fast, slow, errFast},
	} {
		if err := Tiered(tc.fast, tc.slow).Ready(); !errors.Is(err, tc.want) {
			t.Errorf("%s: Ready() = %v, want %v", tc.name, err, tc.want)
		}
	}
}

// newCachePeer spins up a minimal peer speaking the /v1/cache wire: a
// byte store keyed by tier/key, like a `commuter serve` instance's cache
// routes but with no engine behind it.
func newCachePeer(t *testing.T) (*httptest.Server, *sync.Map) {
	t.Helper()
	var store sync.Map // "tier/key" -> []byte
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	})
	mux.HandleFunc(CacheRoutePrefix+"/{tier}/{key}", func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("tier") + "/" + r.PathValue("key")
		switch r.Method {
		case http.MethodGet:
			if data, ok := store.Load(id); ok {
				w.Write(data.([]byte))
				return
			}
			w.WriteHeader(http.StatusNotFound)
		case http.MethodPut:
			data, err := io.ReadAll(r.Body)
			if err != nil {
				w.WriteHeader(http.StatusBadRequest)
				return
			}
			store.Store(id, data)
			w.WriteHeader(http.StatusNoContent)
		}
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv, &store
}

func TestHTTPBackendRoundTrip(t *testing.T) {
	srv, store := newCachePeer(t)
	hb, err := NewHTTPBackend(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	key := strings.Repeat("ab", 32)
	tests := cachedTests()
	cell := KernelCell{Kernel: "linux", Total: 7, Conflicts: 1}

	if _, ok := hb.GetTests(key); ok {
		t.Fatal("hit on an empty peer")
	}
	if err := hb.PutTests(key, tests); err != nil {
		t.Fatal(err)
	}
	if err := hb.PutCell(key, cell); err != nil {
		t.Fatal(err)
	}

	// The wire carries the canonical entry encoding, byte for byte.
	stored, ok := store.Load(TierTestgen + "/" + key)
	if !ok {
		t.Fatal("peer never stored the tests entry")
	}
	want, err := EncodeTestsEntry(key, tests)
	if err != nil {
		t.Fatal(err)
	}
	if string(stored.([]byte)) != string(want) {
		t.Error("wire encoding differs from the canonical entry encoding")
	}

	got, ok := hb.GetTests(key)
	if !ok || !reflect.DeepEqual(got, tests) {
		t.Fatalf("GetTests round trip = %v, %v", got, ok)
	}
	gotCell, ok := hb.GetCell(key)
	if !ok || *gotCell != cell {
		t.Fatalf("GetCell round trip = %v, %v", gotCell, ok)
	}
	if err := hb.Ready(); err != nil {
		t.Errorf("Ready() against a live peer = %v", err)
	}

	// A stored entry whose body fails validation (wrong key) reads as a
	// miss, never a decode error.
	other := strings.Repeat("d", 64)
	store.Store(TierTestgen+"/"+other, want) // body still claims `key`
	if _, ok := hb.GetTests(other); ok {
		t.Error("mis-keyed entry served as a hit")
	}

}

func TestHTTPBackendDeadPeerDegrades(t *testing.T) {
	srv, _ := newCachePeer(t)
	hb, err := NewHTTPBackend(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	srv.Close()

	key := strings.Repeat("e", 64)
	if _, ok := hb.GetTests(key); ok {
		t.Error("dead peer answered a Get")
	}
	if err := hb.PutTests(key, cachedTests()); err == nil {
		t.Error("dead peer accepted a Put")
	}
	if err := hb.Ready(); err == nil || !strings.Contains(err.Error(), "unreachable") {
		t.Errorf("Ready() against a dead peer = %v, want unreachable error", err)
	}

	for _, bad := range []string{"not a url", "127.0.0.1:9", "file:///x"} {
		if _, err := NewHTTPBackend(bad); err == nil {
			t.Errorf("NewHTTPBackend(%q) accepted a non-http URL", bad)
		}
	}
}

// TestOpenCacheReclaimsStaleTemps pins the startup cleanup: an orphaned
// temp file old enough to be stale is removed, while a fresh one
// (plausibly a live sweep's in-progress store) is left alone.
func TestOpenCacheReclaimsStaleTemps(t *testing.T) {
	dir := t.TempDir()
	stale := filepath.Join(dir, strings.Repeat("a", 64)+".tmp123")
	fresh := filepath.Join(dir, strings.Repeat("b", 64)+".tmp456")
	for _, p := range []string{stale, fresh} {
		if err := os.WriteFile(p, []byte("{"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	old := time.Now().Add(-2 * staleTempAge)
	if err := os.Chtimes(stale, old, old); err != nil {
		t.Fatal(err)
	}

	if _, err := OpenCache(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Error("stale temp file survived the cleanup")
	}
	if _, err := os.Stat(fresh); err != nil {
		t.Error("fresh temp file was reclaimed")
	}
}
