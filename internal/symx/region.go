package symx

import (
	"repro/internal/region"
	"repro/internal/sym"
)

// store is the sym.Region symx keeps in a Solver's scope: the storage of
// every dictionary, entry, probe, value and spec state the pair the Solver
// serves builds, and of its explorations' Contexts and their tables,
// rewound at the Solver's Forget. Unlike the scope's nodes
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
	// states holds a *region.Slab[T] per type T New and Append serve.
	states []interface{ Rewind() }
	// contexts are the explorations' Contexts, with their tables; the
	// first nctx are handed out.
	contexts []*Context
	nctx     int
}

func newStore() sym.Region { return new(store) }

// context hands out a Context with empty tables for an exploration: one an
// earlier pair's exploration used, emptied by Rewind, or a new one. A
// sweep worker's Solver runs one exploration a pair, so its pairs share
// one Context.
func (s *store) context() *Context {
	if s.nctx == len(s.contexts) {
		s.contexts = append(s.contexts, &Context{
			r:      s,
			pcSet:  map[*sym.Expr]uint8{},
			infeas: map[*sym.Expr]bool{},
			x: &exploration{
				varKinds: map[string]VarKind{},
				vars:     map[string]*sym.Expr{},
				probes:   map[probeKey]*probe{},
			},
			initProbes: map[string][]*initProbe{},
		})
	}
	s.nctx++
	return s.contexts[s.nctx-1]
}

// Rewind frees everything the store handed out, and empties the Contexts.
func (s *store) Rewind() {
	for _, c := range s.contexts[:s.nctx] {
		c.forget()
	}
	s.nctx = 0
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

// New returns a zero T from the region of c's Solver: a spec's state, or
// a call's spec.Exec, which lives, like the dictionaries it holds, until
// the Solver's Forget.
func New[T any](c *Context) *T { return slabIn[T](c.r).New() }

// Append is append(list, v) with list's storage taken from the region of
// c's Solver (region.Append): a list a replay builds, which lives until
// the Solver's Forget.
func Append[T any](c *Context, list []T, v T) []T { return region.Append(slabIn[T](c.r), list, v) }

// slabIn returns r's slab of T, adding it on first use.
func slabIn[T any](r *store) *region.Slab[T] {
	for _, st := range r.states {
		if s, ok := st.(*region.Slab[T]); ok {
			return s
		}
	}
	s := new(region.Slab[T])
	r.states = append(r.states, s)
	return s
}

// Exprs returns n nil expressions, with capacity n, from the region of c's
// Solver: a call's argument list or return vector, which lives until the
// Solver's Forget.
func (c *Context) Exprs(n int) []*sym.Expr { return c.r.exprs.Take(n) }
