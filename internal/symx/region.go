package symx

import (
	"repro/internal/region"
	"repro/internal/sym"
)

// store is the sym.Region symx keeps in a Solver's scope: the storage of
// every dictionary, entry, probe, value and spec state the pair the Solver
// serves builds, rewound at the Solver's Forget. Unlike the scope's nodes
// it has one bank: what a pair built is handed out again at the very next
// reset, which keeps a sweep worker's high-water mark to one pair's world
// (a second bank cost ~0.9 MB of a cold sweep's peak RSS).
type store struct {
	dicts   region.Slab[Dict]
	entries region.Slab[DictEntry]
	lists   region.Slab[*DictEntry] // the dictionaries' entry lists
	inits   region.Slab[initProbe]
	probes  region.Slab[probe]
	structs region.Slab[Struct]
	fields  region.Slab[string]
	exprs   region.Slab[*sym.Expr]
	// states holds a *region.Slab[T] per spec state type T (see New).
	states []interface{ Rewind() }
}

func newStore() sym.Region { return new(store) }

// Rewind frees everything the store handed out.
func (s *store) Rewind() {
	s.dicts.Rewind()
	s.entries.Rewind()
	s.lists.Rewind()
	s.inits.Rewind()
	s.probes.Rewind()
	s.structs.Rewind()
	s.fields.Rewind()
	s.exprs.Rewind()
	for _, st := range s.states {
		st.Rewind()
	}
}

// New returns a zero T from the region of c's Solver: a spec's state,
// which lives, like the dictionaries it holds, until the Solver's Forget.
func New[T any](c *Context) *T {
	for _, st := range c.r.states {
		if s, ok := st.(*region.Slab[T]); ok {
			return s.New()
		}
	}
	s := new(region.Slab[T])
	c.r.states = append(c.r.states, s)
	return s.New()
}
