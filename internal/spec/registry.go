package spec

import (
	"fmt"
	"maps"
	"slices"
	"strings"
	"sync"
)

var (
	regMu    sync.RWMutex
	registry = map[string]Spec{}
)

// Register adds s to the spec registry under s.Name(). Specs register from
// init functions; a duplicate name panics (it is a wiring bug, not input).
func Register(s Spec) {
	regMu.Lock()
	defer regMu.Unlock()
	name := s.Name()
	if _, dup := registry[name]; dup {
		panic("spec: duplicate registration of " + name)
	}
	registry[name] = s
}

// Names returns the registered spec names, sorted.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	return slices.Sorted(maps.Keys(registry))
}

// Lookup resolves a spec by name. Unknown names return an error listing
// the registered specs, so CLI typos read as guidance instead of a panic.
func Lookup(name string) (Spec, error) {
	regMu.RLock()
	s, ok := registry[name]
	regMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("unknown spec %q (known specs: %s)",
			name, strings.Join(Names(), ", "))
	}
	return s, nil
}

// OpByName resolves one operation of s by name. Unknown names return an
// error listing the spec's operations — the registry-level lookup every
// caller should use instead of scanning Ops and dereferencing nil.
func OpByName(s Spec, name string) (*Op, error) {
	for _, op := range s.Ops() {
		if op.Name == name {
			return op, nil
		}
	}
	return nil, fmt.Errorf("unknown %s op %q (known ops: %s)",
		s.Name(), name, strings.Join(OpNames(s), ", "))
}

// OpNames returns the names of s's operations in canonical order.
func OpNames(s Spec) []string {
	ops := s.Ops()
	out := make([]string, len(ops))
	for i, op := range ops {
		out[i] = op.Name
	}
	return out
}

// OpSet resolves an operation-universe selector against s: "all" (every
// op, canonical order), one of the spec's named subsets (Sets), or a
// comma-separated list of op names — deduplicated preserving
// first-appearance order, so a repeated name can't multi-count its pairs
// in matrix totals.
func OpSet(s Spec, sel string) ([]*Op, error) {
	if sel == "all" {
		return s.Ops(), nil
	}
	if names, ok := s.Sets()[sel]; ok {
		out := make([]*Op, len(names))
		for i, n := range names {
			op, err := OpByName(s, n)
			if err != nil {
				return nil, fmt.Errorf("spec %s: set %q: %w", s.Name(), sel, err)
			}
			out[i] = op
		}
		return out, nil
	}
	var out []*Op
	seen := map[string]bool{}
	for _, n := range strings.Split(sel, ",") {
		op, err := OpByName(s, strings.TrimSpace(n))
		if err != nil {
			return nil, err
		}
		if seen[op.Name] {
			continue
		}
		seen[op.Name] = true
		out = append(out, op)
	}
	return out, nil
}

// ImplSet resolves implementation names against s's bindings; with no
// names it returns all of them in their default order. Names are
// deduplicated preserving first-appearance order (a repeated name must
// not double-count every matrix cell); unknown names error with the
// spec's known implementations.
func ImplSet(s Spec, names ...string) ([]Impl, error) {
	impls := s.Impls()
	if len(names) == 0 {
		return impls, nil
	}
	known := make([]string, len(impls))
	for i, im := range impls {
		known[i] = im.Name
	}
	out := make([]Impl, 0, len(names))
	for k, n := range names {
		i := slices.Index(known, n)
		if i < 0 {
			return nil, fmt.Errorf("spec %s has no implementation %q (known: %s)",
				s.Name(), n, strings.Join(known, ", "))
		}
		if !slices.Contains(names[:k], n) {
			out = append(out, impls[i])
		}
	}
	return out, nil
}
