package sweep

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"time"

	"repro/internal/kernel"
)

// maxEntryBytes bounds a cache-peer response body, mirroring the serve
// side's request bound: a TESTGEN entry for the heaviest pair is well
// under a megabyte, so 64 MiB is a defect detector, not a real limit.
const maxEntryBytes = 64 << 20

// HTTPBackend reads and writes cache entries on a peer `commuter serve`
// instance's /v1/cache routes, which is what lets N servers share one warm
// cache: point every fleet member's -cache at one peer (or layer it under
// a mem: tier — see Tiered) and a pair analyzed anywhere is a hit
// everywhere.
//
// Entries travel in the exact on-disk encoding (EncodeTestsEntry /
// EncodeCellEntry), so the wire is self-validating: the embedded
// CacheVersion and key are checked on every read, and a peer running an
// older code version simply reads as a miss rather than serving stale
// semantics. Transport failures degrade the same way the disk backend's
// contract does — a failed GET is a miss, a failed PUT is a counted
// write error — so a dead peer slows the fleet down to cold-sweep speed
// but never breaks it.
type HTTPBackend struct {
	base   string // scheme://host[:port], no trailing slash
	client *http.Client
}

// NewHTTPBackend returns a backend speaking to the peer at baseURL.
func NewHTTPBackend(baseURL string) (*HTTPBackend, error) {
	u, err := url.Parse(baseURL)
	if err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
		return nil, fmt.Errorf("sweep: cache peer %q is not an http(s) URL", baseURL)
	}
	return &HTTPBackend{
		base: strings.TrimSuffix(baseURL, "/"),
		// Entry bodies are small and the peer answers from disk or memory;
		// a generous timeout only bounds how long a dead peer can stall a
		// sweep worker on one entry.
		client: &http.Client{Timeout: 15 * time.Second},
	}, nil
}

func (h *HTTPBackend) entryURL(tier, key string) string {
	return h.base + CacheRoutePrefix + "/" + tier + "/" + key
}

// get fetches one entry's bytes; any transport or status defect is a miss.
func (h *HTTPBackend) get(tier, key string) ([]byte, bool) {
	resp, err := h.client.Get(h.entryURL(tier, key))
	if err != nil {
		return nil, false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096)) // drain for keep-alive
		return nil, false
	}
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxEntryBytes))
	if err != nil {
		return nil, false
	}
	return data, true
}

// put stores one entry's bytes on the peer.
func (h *HTTPBackend) put(tier, key string, data []byte) error {
	req, err := http.NewRequest(http.MethodPut, h.entryURL(tier, key), bytes.NewReader(data))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := h.client.Do(req)
	if err != nil {
		return fmt.Errorf("cache peer %s: %w", h.base, err)
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	if resp.StatusCode < 200 || resp.StatusCode >= 300 {
		return fmt.Errorf("cache peer %s: PUT %s/%s: %s", h.base, tier, key, resp.Status)
	}
	return nil
}

// GetTests returns the TESTGEN tier entry for key from the peer.
func (h *HTTPBackend) GetTests(key string) ([]kernel.TestCase, bool) {
	data, fetched := h.get(TierTestgen, key)
	if !fetched {
		return nil, false
	}
	return DecodeTestsEntry(key, data)
}

// PutTests stores a pair's generated tests on the peer.
func (h *HTTPBackend) PutTests(key string, tests []kernel.TestCase) error {
	data, err := EncodeTestsEntry(key, tests)
	if err != nil {
		return err
	}
	return h.put(TierTestgen, key, data)
}

// GetCell returns the CHECK tier entry for key from the peer.
func (h *HTTPBackend) GetCell(key string) (*KernelCell, bool) {
	data, fetched := h.get(TierCheck, key)
	if !fetched {
		return nil, false
	}
	return DecodeCellEntry(key, data)
}

// PutCell stores one kernel's cell on the peer.
func (h *HTTPBackend) PutCell(key string, cell KernelCell) error {
	data, err := EncodeCellEntry(key, cell)
	if err != nil {
		return err
	}
	return h.put(TierCheck, key, data)
}

// Ready probes the peer's own health endpoint: this backend can store
// entries iff the peer is up and its cache is writable.
func (h *HTTPBackend) Ready() error {
	resp, err := h.client.Get(h.base + "/healthz")
	if err != nil {
		return fmt.Errorf("cache peer %s unreachable: %w", h.base, err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("cache peer %s unhealthy: %s: %s", h.base, resp.Status, strings.TrimSpace(string(body)))
	}
	return nil
}

// String identifies the peer.
func (h *HTTPBackend) String() string { return h.base }
