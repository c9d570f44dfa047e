package symx

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/sym"
)

// Struct is the one shape of symbolic value stored in model state: an
// ordered collection of named expression fields. Keeping values flat (no
// nested dictionaries) keeps equivalence formulas quantifier-free; models
// flatten nesting with tuple dictionary keys instead (e.g. file pages live
// in a Dict keyed by (inode, offset)).
type Struct struct {
	// Fields maps field name to expression; FieldOrder fixes iteration.
	Fields     map[string]*sym.Expr
	FieldOrder []string
}

// NewStruct builds a struct from alternating name, expr pairs.
func NewStruct(pairs ...any) *Struct {
	if len(pairs)%2 != 0 {
		panic("symx: NewStruct requires name/expr pairs")
	}
	s := &Struct{Fields: map[string]*sym.Expr{}}
	for i := 0; i < len(pairs); i += 2 {
		name := pairs[i].(string)
		e := pairs[i+1].(*sym.Expr)
		if _, dup := s.Fields[name]; dup {
			panic("symx: duplicate struct field " + name)
		}
		s.Fields[name] = e
		s.FieldOrder = append(s.FieldOrder, name)
	}
	return s
}

// Get returns the named field.
func (s *Struct) Get(name string) *sym.Expr {
	e, ok := s.Fields[name]
	if !ok {
		panic("symx: no struct field " + name)
	}
	return e
}

// With returns a copy of s with the named field replaced.
func (s *Struct) With(name string, e *sym.Expr) *Struct {
	if _, ok := s.Fields[name]; !ok {
		panic("symx: no struct field " + name)
	}
	ns := &Struct{Fields: make(map[string]*sym.Expr, len(s.Fields)), FieldOrder: s.FieldOrder}
	for k, v := range s.Fields {
		ns.Fields[k] = v
	}
	ns.Fields[name] = e
	return ns
}

// Key is a tuple of expressions indexing a Dict. Equality of keys is the
// conjunction of componentwise equalities.
type Key []*sym.Expr

// K builds a key from expressions.
func K(es ...*sym.Expr) Key { return Key(es) }

func (k Key) eq(o Key) *sym.Expr {
	if len(k) != len(o) {
		panic("symx: key arity mismatch")
	}
	conj := make([]*sym.Expr, len(k))
	for i := range k {
		conj[i] = sym.Eq(k[i], o[i])
	}
	return sym.And(conj...)
}

// tag renders a content-derived identity for naming initial-state variables.
func (k Key) tag() string {
	parts := make([]string, len(k))
	for i, e := range k {
		parts[i] = e.String()
	}
	return strings.Join(parts, ",")
}

// DictEntry records what one path knows about one dictionary key.
type DictEntry struct {
	Key Key
	// Present is this path's concrete knowledge of membership.
	Present bool
	// Val is the stored value when Present.
	Val *Struct
	// InitialProbe is true when the entry was created by probing
	// unconstrained initial state (as opposed to an explicit Set/Del);
	// TESTGEN uses these entries to materialize concrete initial states.
	InitialProbe bool
	// InitPresentVar is the membership variable for initial probes; nil
	// for total-function dictionaries, whose keys are always present.
	InitPresentVar *sym.Expr
	// InitVal snapshots the unconstrained initial value materialized at
	// probe time; unlike Val it is never overwritten by Set.
	InitVal *Struct
}

// Dict is a symbolic dictionary over tuple keys with unconstrained initial
// content. The first probe of a fresh key forks on a named membership
// variable and, when present, materializes an unconstrained value via
// MakeVal. Within one path, entry keys are pairwise distinct under the path
// condition (lookup branches on key equality before creating a new entry).
type Dict struct {
	// Name prefixes the content-derived variable names.
	Name string
	// MakeVal builds an unconstrained value for initial content at the
	// key with the given tag.
	MakeVal func(c *Context, tag string) *Struct

	entries []*DictEntry
}

// NewDict returns an empty-overlay dictionary with unconstrained initial
// content.
func NewDict(name string, makeVal func(c *Context, tag string) *Struct) *Dict {
	return &Dict{Name: name, MakeVal: makeVal}
}

// initProbe is one registered initial-content probe, shared across all
// same-named dictionaries of a Context so that differently-keyed probes of
// one location observe the same unconstrained content.
type initProbe struct {
	key Key
	// presentVar is nil for total-function probes (always present).
	presentVar *sym.Expr
	val        *Struct
}

// lookup finds or creates the entry governing key k on this path. A miss in
// this dictionary's overlay first consults the Context's initial-probe
// registry: if k equals a location some same-named dictionary already
// probed, the same membership variable and value are observed; otherwise a
// fresh probe is registered.
func (d *Dict) lookup(c *Context, k Key) *DictEntry {
	for _, e := range d.entries {
		if c.Branch(k.eq(e.Key)) {
			return e
		}
	}
	for _, ip := range c.initProbes[d.Name] {
		if ip.presentVar == nil {
			continue // total-function probe; lookup callers never made it
		}
		if c.Branch(k.eq(ip.key)) {
			e := &DictEntry{
				Key: k, Present: c.Branch(ip.presentVar),
				InitialProbe: true, InitPresentVar: ip.presentVar,
			}
			if e.Present {
				e.Val = ip.val
				e.InitVal = ip.val
			}
			d.entries = append(d.entries, e)
			return e
		}
	}
	tag := fmt.Sprintf("%s[%s]", d.Name, k.tag())
	pv := c.Var(tag+".present", sym.BoolSort, KindState)
	present := c.Branch(pv)
	e := &DictEntry{Key: k, Present: present, InitialProbe: true, InitPresentVar: pv}
	ip := &initProbe{key: k, presentVar: pv}
	if present {
		e.Val = d.MakeVal(c, tag)
		e.InitVal = e.Val
		ip.val = e.Val
	}
	d.entries = append(d.entries, e)
	c.initProbes[d.Name] = append(c.initProbes[d.Name], ip)
	return e
}

// GetFunc is a total-function view: the key is considered always present,
// and a fresh unconstrained value is materialized on first access without
// forking on membership. Use this for tables indexed by identifiers that
// always resolve (inode metadata, pipe cursors). Initial content is shared
// through the Context registry like lookup's.
func (d *Dict) GetFunc(c *Context, k Key) *Struct {
	for _, e := range d.entries {
		if c.Branch(k.eq(e.Key)) {
			if !e.Present {
				panic("symx: GetFunc after Del in " + d.Name)
			}
			return e.Val
		}
	}
	for _, ip := range c.initProbes[d.Name] {
		if ip.presentVar != nil || ip.val == nil {
			continue
		}
		if c.Branch(k.eq(ip.key)) {
			e := &DictEntry{Key: k, Present: true, Val: ip.val, InitialProbe: true, InitVal: ip.val}
			d.entries = append(d.entries, e)
			return e.Val
		}
	}
	tag := fmt.Sprintf("%s[%s]", d.Name, k.tag())
	v := d.MakeVal(c, tag)
	e := &DictEntry{Key: k, Present: true, Val: v, InitialProbe: true, InitVal: v}
	d.entries = append(d.entries, e)
	c.initProbes[d.Name] = append(c.initProbes[d.Name], &initProbe{key: k, val: v})
	return e.Val
}

// Contains reports (per-path concretely) whether k is present.
func (d *Dict) Contains(c *Context, k Key) bool { return d.lookup(c, k).Present }

// Get returns the value at k; the caller must have established presence.
func (d *Dict) Get(c *Context, k Key) *Struct {
	e := d.lookup(c, k)
	if !e.Present {
		panic("symx: Get of absent key in " + d.Name)
	}
	return e.Val
}

// lookupWrite is like lookup but does not probe unconstrained initial
// membership: a write overwrites whatever was there, so the prior state is
// irrelevant and forking on it would only multiply paths.
func (d *Dict) lookupWrite(c *Context, k Key) *DictEntry {
	for _, e := range d.entries {
		if c.Branch(k.eq(e.Key)) {
			return e
		}
	}
	e := &DictEntry{Key: k}
	d.entries = append(d.entries, e)
	return e
}

// Set stores v at k.
func (d *Dict) Set(c *Context, k Key, v *Struct) {
	e := d.lookupWrite(c, k)
	e.Present = true
	e.Val = v
}

// Del removes k.
func (d *Dict) Del(c *Context, k Key) {
	e := d.lookupWrite(c, k)
	e.Present = false
	e.Val = nil
}

// Entries exposes the per-path entry overlay (for TESTGEN and equivalence).
func (d *Dict) Entries() []*DictEntry { return d.entries }

// DictsEquivalent builds the formula stating that dictionaries a and b hold
// equal content at every key either path touched. Untouched keys share the
// same initial-content variables by construction (content-derived naming),
// so they are equal by definition and need no clauses.
//
// What the two sides and all fields of one key share is built once per
// key: the initial-content name, the MakeVal default (one name, so the
// same memoised variables whichever dictionary asks), and the guards
// comparing the key with every registered probe and every overlay entry.
func DictsEquivalent(c *Context, a, b *Dict) *sym.Expr {
	if a.Name != b.Name {
		panic("symx: comparing dictionaries with different identities")
	}
	keys := unionKeys(a, b)
	fields := fieldSet(a, b)
	probes := c.initProbes[a.Name]
	conj := make([]*sym.Expr, 0, len(keys))
	var probeEq, aEq, bEq []*sym.Expr
	for _, k := range keys {
		name := fmt.Sprintf("%s[%s]", a.Name, k.tag)
		probeEq = probeEq[:0]
		for _, ip := range probes {
			probeEq = append(probeEq, ip.key.eq(k.key))
		}
		aEq, bEq = a.entryGuards(aEq[:0], k.key), b.entryGuards(bEq[:0], k.key)

		// Membership. The default for keys outside a dictionary's overlay
		// is the initial content: a registered probe's membership variable
		// if the location was probed anywhere, else a name-derived one.
		init := c.Var(name+".present", sym.BoolSort, KindState)
		for i, ip := range probes {
			if ip.presentVar != nil {
				init = sym.Ite(probeEq[i], ip.presentVar, init)
			} else {
				init = sym.Ite(probeEq[i], sym.True, init)
			}
		}
		pa, pb := a.overlay(aEq, init, entryPresent), b.overlay(bEq, init, entryPresent)
		clause := sym.Eq(pa, pb)

		// Fields, each guarded by presence and defaulting to the initial
		// content's.
		var def *Struct
		if len(fields) > 0 {
			def = a.MakeVal(c, name)
		}
		for _, f := range fields {
			init := def.Get(f)
			for i, ip := range probes {
				if ip.val != nil {
					init = sym.Ite(probeEq[i], ip.val.Get(f), init)
				}
			}
			entryField := func(e *DictEntry) *sym.Expr {
				if !e.Present {
					return nil // masked by the presence guard
				}
				return e.Val.Get(f)
			}
			fa, fb := a.overlay(aEq, init, entryField), b.overlay(bEq, init, entryField)
			clause = sym.And(clause, sym.Implies(pa, sym.Eq(fa, fb)))
		}
		conj = append(conj, clause)
	}
	return sym.And(conj...)
}

// entryGuards appends, for each overlay entry in order, the formula that
// the entry's key equals k.
func (d *Dict) entryGuards(dst []*sym.Expr, k Key) []*sym.Expr {
	for _, e := range d.entries {
		dst = append(dst, e.Key.eq(k))
	}
	return dst
}

func entryPresent(e *DictEntry) *sym.Expr { return sym.Bool(e.Present) }

// overlay builds, without branching, what the dictionary holds at the key
// whose entry guards are eq (see entryGuards): an ITE chain over the
// overlay entries with init, the initial content, as the default. val
// gives what an entry holds — its membership, or a field of its value —
// or nil for an entry that leaves the chain as it is.
//
// Later entries were written later; an overlay entry whose key equals the
// key overrides the default. Entries are pairwise distinct under the path
// condition, so at most one guard is true and order among entries is
// immaterial; entry-vs-default priority is what matters.
func (d *Dict) overlay(eq []*sym.Expr, init *sym.Expr, val func(*DictEntry) *sym.Expr) *sym.Expr {
	res := init
	for i, e := range d.entries {
		if v := val(e); v != nil {
			res = sym.Ite(eq[i], v, res)
		}
	}
	return res
}

// taggedKey is a key with its rendered tag.
type taggedKey struct {
	key Key
	tag string
}

// unionKeys returns the syntactically-deduplicated union of overlay keys.
func unionKeys(a, b *Dict) []taggedKey {
	var keys []taggedKey
	seen := map[string]bool{}
	for _, d := range []*Dict{a, b} {
		for _, e := range d.entries {
			t := e.Key.tag()
			if !seen[t] {
				seen[t] = true
				keys = append(keys, taggedKey{e.Key, t})
			}
		}
	}
	return keys
}

// fieldSet finds the field names, sorted, of the values the dictionaries
// store. All values in one dictionary share a shape.
func fieldSet(a, b *Dict) []string {
	for _, d := range []*Dict{a, b} {
		for _, e := range d.entries {
			if e.Present && e.Val != nil {
				out := append([]string(nil), e.Val.FieldOrder...)
				sort.Strings(out)
				return out
			}
		}
	}
	// No present entry anywhere: only membership matters.
	return nil
}
