package sweep

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"time"

	"repro/internal/transport"
)

// peerTimeout bounds one exchange with a cache peer or a fleet coordinator.
// Their bodies are small and answered from disk or memory; a generous
// timeout only bounds how long a dead one can stall a sweep worker.
const peerTimeout = 15 * time.Second

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
	entryCodec
	peer *transport.Client
}

// NewHTTPBackend returns a backend speaking to the peer at baseURL.
func NewHTTPBackend(baseURL string) (*HTTPBackend, error) {
	peer, err := transport.New(baseURL, peerTimeout)
	if err != nil {
		return nil, fmt.Errorf("sweep: cache peer %q is not an http(s) URL", baseURL)
	}
	h := &HTTPBackend{peer: peer}
	h.entryCodec = entryCodec{h}
	return h, nil
}

func entryPath(tier, key string) string { return CacheRoutePrefix + "/" + tier + "/" + key }

// get fetches one entry's bytes; any transport or status defect is a miss.
func (h *HTTPBackend) get(tier, key string) ([]byte, bool) {
	data, err := h.peer.Bytes(context.Background(), http.MethodGet, entryPath(tier, key), nil)
	return data, err == nil
}

// put stores one entry's bytes on the peer.
func (h *HTTPBackend) put(tier, key string, data []byte) error {
	if _, err := h.peer.Bytes(context.Background(), http.MethodPut, entryPath(tier, key), data); err != nil {
		return fmt.Errorf("cache peer %s: %w", h.peer, err)
	}
	return nil
}

// Ready probes the peer's own health endpoint: this backend can store
// entries iff the peer is up and its cache is writable.
func (h *HTTPBackend) Ready() error {
	_, err := h.peer.Bytes(context.Background(), http.MethodGet, "/healthz", nil)
	var se *transport.StatusError
	switch {
	case errors.As(err, &se):
		return fmt.Errorf("cache peer %s unhealthy: %s: %s", h.peer, se.Status, strings.TrimSpace(string(se.Body)))
	case err != nil:
		return fmt.Errorf("cache peer %s unreachable: %w", h.peer, err)
	}
	return nil
}

// String identifies the peer.
func (h *HTTPBackend) String() string { return h.peer.String() }
