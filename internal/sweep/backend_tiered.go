package sweep

import (
	"errors"

	"repro/internal/kernel"
)

// TieredBackend layers a fast backend over a slow one: reads try fast
// first and backfill it on a slow-tier hit, writes go through to both.
// The canonical stack is Tiered(mem, http) on a fleet member — hot
// entries answer from process memory, the shared peer keeps the fleet
// warm, and a mem eviction costs one peer round trip, not a recompute.
// Stacks nest: OpenBackend("mem:,http://peer,dir:/spill") folds the list
// into Tiered(mem, Tiered(http, dir)).
type TieredBackend struct {
	fast, slow Backend
}

// Tiered combines two backends, fast first.
func Tiered(fast, slow Backend) *TieredBackend {
	return &TieredBackend{fast: fast, slow: slow}
}

// GetTests tries the fast tier, then the slow tier (backfilling the fast
// tier on a hit so the next read stays local).
func (t *TieredBackend) GetTests(key string) ([]kernel.TestCase, bool) {
	tests, ok := t.fast.GetTests(key)
	if !ok {
		if tests, ok = t.slow.GetTests(key); ok {
			// Backfill is best-effort: a full or failing fast tier just
			// means the next read pays the slow tier again.
			t.fast.PutTests(key, tests)
		}
	}
	return tests, ok
}

// PutTests writes through to both tiers; a failure in either is reported
// (both are attempted regardless).
func (t *TieredBackend) PutTests(key string, tests []kernel.TestCase) error {
	return errors.Join(t.fast.PutTests(key, tests), t.slow.PutTests(key, tests))
}

// GetCell mirrors GetTests for the CHECK tier.
func (t *TieredBackend) GetCell(key string) (*KernelCell, bool) {
	cell, ok := t.fast.GetCell(key)
	if !ok {
		if cell, ok = t.slow.GetCell(key); ok {
			t.fast.PutCell(key, *cell)
		}
	}
	return cell, ok
}

// PutCell writes through to both tiers.
func (t *TieredBackend) PutCell(key string, cell KernelCell) error {
	return errors.Join(t.fast.PutCell(key, cell), t.slow.PutCell(key, cell))
}

// Ready requires both tiers: a stack that can only half-store entries
// would silently stop sharing, which is exactly what readiness exists to
// surface.
func (t *TieredBackend) Ready() error {
	if err := t.fast.Ready(); err != nil {
		return err
	}
	return t.slow.Ready()
}

// String identifies the stack.
func (t *TieredBackend) String() string {
	return "tiered(" + t.fast.String() + "," + t.slow.String() + ")"
}
