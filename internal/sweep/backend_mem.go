package sweep

import (
	"container/list"
	"fmt"
	"sync"

	"repro/internal/kernel"
)

// defaultMemEntries is the MemBackend capacity OpenBackend("mem:") uses.
// Entries are whole tier values (a pair's test set or one kernel cell);
// 4096 comfortably holds the full 18-op posix matrix for both tiers and
// both kernels (171 pairs x 3 entries) with room for several specs and
// option variants.
const defaultMemEntries = 4096

// MemBackend is a bounded in-memory LRU cache backend. It exists for two
// jobs: hermetic tests (no disk), and the fast tier of a Tiered stack
// layered over a slower shared backend — hot entries answer from memory,
// evictions fall through to the slow tier, nothing is lost because every
// Put writes through.
type MemBackend struct {
	mu    sync.Mutex
	max   int
	order *list.List // front = most recently used
	items map[string]*list.Element
}

// memItem is one LRU entry; exactly one of tests/cell is set, matching
// the tier encoded in its key's prefix.
type memItem struct {
	key   string
	tests []kernel.TestCase
	cell  *KernelCell
}

// NewMemBackend returns an empty LRU backend holding at most max entries
// (<= 0 means defaultMemEntries).
func NewMemBackend(max int) *MemBackend {
	if max <= 0 {
		max = defaultMemEntries
	}
	return &MemBackend{max: max, order: list.New(), items: make(map[string]*list.Element)}
}

// The two tiers share one LRU; tier prefixes keep their key spaces
// disjoint (the hex keys alone are already disjoint per tier, but the
// prefix makes that independent of how keys are derived).
func testsKey(key string) string { return "t:" + key }
func cellKey(key string) string  { return "c:" + key }

func (m *MemBackend) get(k string) (*memItem, bool) {
	el, ok := m.items[k]
	if !ok {
		return nil, false
	}
	m.order.MoveToFront(el)
	return el.Value.(*memItem), true
}

func (m *MemBackend) put(it *memItem) {
	if el, ok := m.items[it.key]; ok {
		el.Value = it
		m.order.MoveToFront(el)
		return
	}
	m.items[it.key] = m.order.PushFront(it)
	for m.order.Len() > m.max {
		oldest := m.order.Back()
		m.order.Remove(oldest)
		delete(m.items, oldest.Value.(*memItem).key)
	}
}

// GetTests returns the TESTGEN tier entry for key.
func (m *MemBackend) GetTests(key string) ([]kernel.TestCase, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if it, ok := m.get(testsKey(key)); ok {
		return it.tests, true
	}
	return nil, false
}

// PutTests stores a pair's generated tests under key. It never fails.
func (m *MemBackend) PutTests(key string, tests []kernel.TestCase) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.put(&memItem{key: testsKey(key), tests: tests})
	return nil
}

// GetCell returns the CHECK tier entry for key. The cell is returned by
// value-copy so callers can't mutate the stored entry.
func (m *MemBackend) GetCell(key string) (*KernelCell, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if it, ok := m.get(cellKey(key)); ok {
		cell := *it.cell
		return &cell, true
	}
	return nil, false
}

// PutCell stores one kernel's cell under key. It never fails.
func (m *MemBackend) PutCell(key string, cell KernelCell) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.put(&memItem{key: cellKey(key), cell: &cell})
	return nil
}

// Ready always succeeds: memory is writable as long as the process is.
func (m *MemBackend) Ready() error { return nil }

// String identifies the backend and its capacity.
func (m *MemBackend) String() string { return fmt.Sprintf("mem:%d", m.max) }
