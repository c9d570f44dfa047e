package sweep

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/kernel"
)

// Backend is the sweep cache's storage interface: the two content-addressed
// tiers (Get/Put per tier) and a readiness probe. Hits and misses are
// counted by the engine per sweep (Result.Cache), not by the backend.
// The engine, the Client façade and `commuter serve` all speak to the
// cache through it, so where entries live — a local directory (*Cache), a
// bounded in-memory LRU (*MemBackend), a peer server's /v1/cache routes
// (*HTTPBackend), or a Tiered stack of those — is a deployment choice,
// not a code path.
//
// Contract notes, shared by every implementation:
//
//   - Gets never fail: any defect (absent entry, stale version, transport
//     error) is a miss, and the caller recomputes. Puts return their error
//     so callers can count the degradation, but a failed store costs
//     incrementality, never correctness.
//   - A hit's value is shared, not copied, on the tests slice — callers
//     treat cached test sets as immutable (the CHECK replay only reads them).
//   - Implementations are safe for concurrent use.
type Backend interface {
	// GetTests returns the TESTGEN tier entry for key, if present.
	GetTests(key string) ([]kernel.TestCase, bool)
	// PutTests stores a pair's generated tests under key.
	PutTests(key string, tests []kernel.TestCase) error
	// GetCell returns the CHECK tier entry for key, if present.
	GetCell(key string) (*KernelCell, bool)
	// PutCell stores one kernel's cell under key.
	PutCell(key string, cell KernelCell) error
	// Ready probes whether the backend can currently store entries; the
	// serve health endpoint surfaces its error.
	Ready() error
	// String identifies the backend ("dir:/path", "mem:4096", a peer URL,
	// "tiered(...)") for logs and metric labels.
	String() string
}

// Tier names used by the cache wire route (/v1/cache/{tier}/{key}).
const (
	TierTestgen = "testgen"
	TierCheck   = "check"
)

// CacheRoutePrefix is the serve-side mount point of the cache-peer routes;
// an entry's URL is CacheRoutePrefix + "/{tier}/{key}". It lives here
// rather than internal/api because the HTTP backend (this package) and the
// api package cannot import each other.
const CacheRoutePrefix = "/v1/cache"

// OpenBackend opens a cache backend from its URL-ish spec:
//
//	dir:/path/to/cache   - the on-disk backend (a bare path means the same)
//	mem:  or  mem:50000  - a bounded in-memory LRU (default defaultMemEntries)
//	http://host:port     - a peer `commuter serve -cache ...` instance
//	fast,slow            - a Tiered stack, fastest first (e.g. "mem:,http://peer")
//
// The bare-path form keeps every existing `-cache DIR` invocation meaning
// exactly what it did before backends were pluggable.
func OpenBackend(spec string) (Backend, error) {
	if strings.Contains(spec, ",") {
		parts := strings.Split(spec, ",")
		backends := make([]Backend, 0, len(parts))
		for _, p := range parts {
			p = strings.TrimSpace(p)
			if p == "" {
				return nil, fmt.Errorf("sweep: open backend %q: empty tier in list", spec)
			}
			b, err := OpenBackend(p)
			if err != nil {
				return nil, err
			}
			backends = append(backends, b)
		}
		// Fold right-to-left so the first-listed backend is the fastest,
		// outermost tier.
		b := backends[len(backends)-1]
		for i := len(backends) - 2; i >= 0; i-- {
			b = Tiered(backends[i], b)
		}
		return b, nil
	}
	switch {
	case spec == "":
		return nil, fmt.Errorf("sweep: open backend: empty spec")
	case strings.HasPrefix(spec, "dir:"):
		return OpenCache(strings.TrimPrefix(spec, "dir:"))
	case spec == "mem" || spec == "mem:":
		return NewMemBackend(defaultMemEntries), nil
	case strings.HasPrefix(spec, "mem:"):
		n, err := strconv.Atoi(strings.TrimPrefix(spec, "mem:"))
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("sweep: open backend %q: mem wants a positive entry count", spec)
		}
		return NewMemBackend(n), nil
	case strings.HasPrefix(spec, "http://"), strings.HasPrefix(spec, "https://"):
		return NewHTTPBackend(spec)
	case strings.Contains(spec, "://"):
		return nil, fmt.Errorf("sweep: open backend %q: unknown scheme (want dir:, mem:, http:// or https://)", spec)
	default:
		return OpenCache(spec)
	}
}

// backendKind derives the metric/log label for a backend from its String
// form: the leading run of letters ("dir", "mem", "http", "https",
// "tiered").
func backendKind(b Backend) string {
	s := b.String()
	for i, r := range s {
		if (r < 'a' || r > 'z') && (r < 'A' || r > 'Z') {
			if i == 0 {
				return "unknown"
			}
			return s[:i]
		}
	}
	if s == "" {
		return "unknown"
	}
	return s
}
