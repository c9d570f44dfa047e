package symx

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/region"
	"repro/internal/sym"
)

// Struct is the one shape of symbolic value stored in model state: an
// ordered collection of named expression fields. Keeping values flat (no
// nested dictionaries) keeps equivalence formulas quantifier-free; models
// flatten nesting with tuple dictionary keys instead (e.g. file pages live
// in a Dict keyed by (inode, offset)).
type Struct struct {
	// FieldOrder names the fields; vals holds their expressions in the same
	// order. A model's structs have at most five fields, so a name is found
	// by a scan.
	FieldOrder []string
	vals       []*sym.Expr
}

// NewStruct builds a struct from alternating name, expr pairs, in the
// region of c's Solver (see New).
func NewStruct(c *Context, pairs ...any) *Struct {
	if len(pairs)%2 != 0 {
		panic("symx: NewStruct requires name/expr pairs")
	}
	n := len(pairs) / 2
	s := c.r.structs.New()
	s.FieldOrder, s.vals = c.r.fields.Take(n)[:0], c.r.exprs.Take(n)[:0]
	for i := 0; i < len(pairs); i += 2 {
		name := pairs[i].(string)
		if slices.Contains(s.FieldOrder, name) {
			panic("symx: duplicate struct field " + name)
		}
		s.FieldOrder = append(s.FieldOrder, name)
		s.vals = append(s.vals, pairs[i+1].(*sym.Expr))
	}
	return s
}

// Get returns the named field.
func (s *Struct) Get(name string) *sym.Expr { return s.vals[s.index(name)] }

// With returns a copy of s, in the region of c's Solver, with the named
// field replaced.
func (s *Struct) With(c *Context, name string, e *sym.Expr) *Struct {
	ns := c.r.structs.New()
	ns.FieldOrder, ns.vals = s.FieldOrder, c.r.exprs.Take(len(s.vals))
	copy(ns.vals, s.vals)
	ns.vals[s.index(name)] = e
	return ns
}

func (s *Struct) index(name string) int {
	if i := slices.Index(s.FieldOrder, name); i >= 0 {
		return i
	}
	panic("symx: no struct field " + name)
}

// Key is a tuple of expressions indexing a Dict. Equality of keys is the
// conjunction of componentwise equalities.
type Key []*sym.Expr

// K builds a key from expressions; a Dict copies one only to keep it (keep).
func K(es ...*sym.Expr) Key { return Key(es) }

// keep copies k into the region of c's Solver, for a Dict to keep.
func (c *Context) keep(k Key) Key { return append(c.r.exprs.Take(len(k))[:0], k...) }

func (k Key) eq(o Key) *sym.Expr {
	if len(k) != len(o) {
		panic("symx: key arity mismatch")
	}
	var buf [4]*sym.Expr
	conj := buf[:0]
	for i := range k {
		conj = append(conj, sym.Eq(k[i], o[i]))
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
// A Dict, its entries and its values live in the region of the Solver of
// the Context that built them (see New).
type Dict struct {
	// Name prefixes the content-derived variable names.
	Name string
	// MakeVal builds an unconstrained value for initial content at the
	// key with the given tag (see NewDict).
	MakeVal func(c *Context, tag string) *Struct

	entries []*DictEntry
}

// NewDict returns an empty-overlay dictionary with unconstrained initial
// content. makeVal must be a function of its tag: it may name variables
// after the tag with c.Var and constrain them with c.Assume, and call
// nothing else on c — a Branch inside it panics. Dictionaries that share a
// name must share makeVal. The exploration calls it once per location and
// tag and hands its value, and the conditions it Assumed, to every later
// use (see probe).
func NewDict(c *Context, name string, makeVal func(c *Context, tag string) *Struct) *Dict {
	d := c.r.dicts.New()
	d.Name, d.MakeVal = name, makeVal
	return d
}

// probeArity bounds the key components the probe table keys on; a longer
// key's probe is derived again at every use.
const probeArity = 2

// probeKey is one dictionary location: the name and the interned key.
type probeKey struct {
	dict string
	key  [probeArity]*sym.Expr
}

// probe is what one dictionary location's tag determines, derived once per
// exploration: the tag, the membership variable, and the value the first
// MakeVal returned together with the conditions it Assumed, in order.
type probe struct {
	tag     string
	present *sym.Expr
	val     *Struct
	assumed []*sym.Expr
}

// probe returns the exploration's entry for d's location k.
func (c *Context) probe(d *Dict, k Key) *probe {
	if len(k) > probeArity {
		return c.newProbe(d, k)
	}
	pk := probeKey{dict: d.Name}
	copy(pk.key[:], k)
	p := c.x.probes[pk]
	if p == nil {
		p = c.newProbe(d, k)
		c.x.probes[pk] = p
	}
	return p
}

// newProbe returns a probe of d's location k that knows only its tag.
func (c *Context) newProbe(d *Dict, k Key) *probe {
	p := c.r.probes.New()
	p.tag = fmt.Sprintf("%s[%s]", d.Name, k.tag())
	return p
}

// presentVar returns the location's membership variable.
func (p *probe) presentVar(c *Context) *sym.Expr {
	if p.present == nil {
		p.present = c.Var(p.tag+".present", sym.BoolSort, KindState)
	}
	return p.present
}

// value returns d.MakeVal's value at the location. After the first call
// it Assumes what that call Assumed, in order — the path condition grows,
// or the replay aborts, as another MakeVal would have made it — and
// returns the same Struct.
func (p *probe) value(c *Context, d *Dict) *Struct {
	if p.val != nil {
		for _, cond := range p.assumed {
			c.Assume(cond)
		}
		return p.val
	}
	start := len(c.x.heard)
	c.making, c.makingTag = d, p.tag
	v := d.MakeVal(c, p.tag)
	c.making = nil
	p.val, p.assumed = v, c.heardSince(start)
	return v
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

// lookup finds or creates the entry governing key k on this path: the
// overlay entry whose key equals k, else the initial content. total selects
// the view — a total function's keys are always present, a partial one's
// fork on a membership variable — and initial content is shared through
// the Context's registry of probes of that view: if k equals a location
// some same-named dictionary already probed, the same membership and value
// are observed; otherwise a fresh probe is registered.
func (d *Dict) lookup(c *Context, k Key, total bool) *DictEntry {
	if e := d.overlayEntry(c, k); e != nil {
		return e
	}
	e := c.r.entries.New()
	e.Key, e.Present, e.InitialProbe = c.keep(k), true, true
	for _, ip := range c.initProbes[d.Name] {
		if (ip.presentVar == nil) != total {
			continue // the other view's probe
		}
		if c.Branch(k.eq(ip.key)) {
			if !total {
				e.InitPresentVar = ip.presentVar
				e.Present = c.Branch(ip.presentVar)
			}
			if e.Present {
				e.Val, e.InitVal = ip.val, ip.val
			}
			d.entries = region.Append(&c.r.lists, d.entries, e)
			return e
		}
	}
	p := c.probe(d, k)
	if !total {
		e.InitPresentVar = p.presentVar(c)
		e.Present = c.Branch(e.InitPresentVar)
	}
	if e.Present {
		e.Val = p.value(c, d)
		e.InitVal = e.Val
	}
	d.entries = region.Append(&c.r.lists, d.entries, e)
	ip := c.r.inits.New()
	ip.key, ip.presentVar, ip.val = e.Key, e.InitPresentVar, e.Val
	c.initProbes[d.Name] = append(c.initProbes[d.Name], ip)
	return e
}

// GetFunc is a total-function view: the key is considered always present,
// and a fresh unconstrained value is materialized on first access without
// forking on membership. Use this for tables indexed by identifiers that
// always resolve (inode metadata, pipe cursors).
func (d *Dict) GetFunc(c *Context, k Key) *Struct {
	e := d.lookup(c, k, true)
	if !e.Present {
		panic("symx: GetFunc after Del in " + d.Name)
	}
	return e.Val
}

// Contains reports (per-path concretely) whether k is present.
func (d *Dict) Contains(c *Context, k Key) bool { return d.lookup(c, k, false).Present }

// Get returns the value at k; the caller must have established presence.
func (d *Dict) Get(c *Context, k Key) *Struct {
	e := d.lookup(c, k, false)
	if !e.Present {
		panic("symx: Get of absent key in " + d.Name)
	}
	return e.Val
}

// overlayEntry is the overlay entry whose key equals k on this path, or nil.
func (d *Dict) overlayEntry(c *Context, k Key) *DictEntry {
	for _, e := range d.entries {
		if c.Branch(k.eq(e.Key)) {
			return e
		}
	}
	return nil
}

// lookupWrite is like lookup but does not probe unconstrained initial
// membership: a write overwrites whatever was there, so the prior state is
// irrelevant and forking on it would only multiply paths.
func (d *Dict) lookupWrite(c *Context, k Key) *DictEntry {
	if e := d.overlayEntry(c, k); e != nil {
		return e
	}
	e := c.r.entries.New()
	e.Key = c.keep(k)
	d.entries = region.Append(&c.r.lists, d.entries, e)
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

// DictsEquivalent appends to dst the conjuncts stating that dictionaries a
// and b hold equal content at every key either path touched: per key, that
// membership agrees and, for each field, that present values agree.
// Untouched keys share the same initial-content variables by construction
// (content-derived naming), so they are equal by definition and need no
// clauses. sym.And of the result is the formula; conjoining the conjuncts
// once is what conjoining them per key and per dictionary would give.
//
// What the two sides and all fields of one key share is built once per
// key: the MakeVal default (one tag, so one probe whichever dictionary
// asks), and the guards comparing the key with every registered probe and
// every overlay entry. The lists it builds them in are c's (equivScratch),
// kept from call to call.
func DictsEquivalent(dst []*sym.Expr, c *Context, a, b *Dict) []*sym.Expr {
	if a.Name != b.Name {
		panic("symx: comparing dictionaries with different identities")
	}
	probes := c.initProbes[a.Name]
	s := &c.eq
	s.keys = unionKeys(s.keys[:0], c, a, b)
	s.fields = fieldSet(s.fields[:0], a, b)
	for _, k := range s.keys {
		probeEq := s.probeEq[:0]
		for _, ip := range probes {
			probeEq = append(probeEq, ip.key.eq(k.key))
		}
		aEq, bEq := a.entryGuards(s.aEq[:0], k.key), b.entryGuards(s.bEq[:0], k.key)
		s.probeEq, s.aEq, s.bEq = probeEq, aEq, bEq

		// Membership. The default for keys outside a dictionary's overlay
		// is the initial content: a registered probe's membership variable
		// if the location was probed anywhere, else a name-derived one.
		init := k.probe.presentVar(c)
		for i, ip := range probes {
			if ip.presentVar != nil {
				init = sym.Ite(probeEq[i], ip.presentVar, init)
			} else {
				init = sym.Ite(probeEq[i], sym.True, init)
			}
		}
		pa, pb := a.overlay(aEq, init, entryPresent), b.overlay(bEq, init, entryPresent)
		dst = append(dst, sym.Eq(pa, pb))

		// Fields, each guarded by presence and defaulting to the initial
		// content's.
		var def *Struct
		if len(s.fields) > 0 {
			def = k.probe.value(c, a)
		}
		for _, f := range s.fields {
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
			dst = append(dst, sym.Implies(pa, sym.Eq(fa, fb)))
		}
	}
	return dst
}

// equivScratch is DictsEquivalent's storage, which its Context keeps from
// call to call: the union of the overlays' keys, the sorted field names, and
// a key's guards against every registered probe and every entry of either
// overlay.
type equivScratch struct {
	keys              []probedKey
	fields            []string
	probeEq, aEq, bEq []*sym.Expr
}

// forget drops what the lists point to, keeping their storage.
func (s *equivScratch) forget() {
	clear(s.keys[:cap(s.keys)])
	clear(s.fields[:cap(s.fields)])
	clear(s.probeEq[:cap(s.probeEq)])
	clear(s.aEq[:cap(s.aEq)])
	clear(s.bEq[:cap(s.bEq)])
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

// probedKey is a key with its location's probe.
type probedKey struct {
	key   Key
	probe *probe
}

// unionKeys appends to keys the union of overlay keys, deduplicated by tag.
func unionKeys(keys []probedKey, c *Context, a, b *Dict) []probedKey {
	for _, d := range [2]*Dict{a, b} {
		for _, e := range d.entries {
			p := c.probe(a, e.Key)
			if !slices.ContainsFunc(keys, func(k probedKey) bool { return k.probe.tag == p.tag }) {
				keys = append(keys, probedKey{e.Key, p})
			}
		}
	}
	return keys
}

// fieldSet appends to dst the field names, sorted, of the values the
// dictionaries store. All values in one dictionary share a shape.
func fieldSet(dst []string, a, b *Dict) []string {
	for _, d := range [2]*Dict{a, b} {
		for _, e := range d.entries {
			if e.Present && e.Val != nil {
				dst = append(dst, e.Val.FieldOrder...)
				slices.Sort(dst)
				return dst
			}
		}
	}
	// No present entry anywhere: only membership matters.
	return dst
}
