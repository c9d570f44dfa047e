package symx

import (
	"fmt"
	"slices"
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
	// FieldOrder names the fields; vals holds their expressions in the same
	// order. A model's structs have at most five fields, so a name is found
	// by a scan.
	FieldOrder []string
	vals       []*sym.Expr
}

// NewStruct builds a struct from alternating name, expr pairs.
func NewStruct(pairs ...any) *Struct {
	if len(pairs)%2 != 0 {
		panic("symx: NewStruct requires name/expr pairs")
	}
	n := len(pairs) / 2
	s := &Struct{FieldOrder: make([]string, 0, n), vals: make([]*sym.Expr, 0, n)}
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

// With returns a copy of s with the named field replaced.
func (s *Struct) With(name string, e *sym.Expr) *Struct {
	ns := &Struct{FieldOrder: s.FieldOrder, vals: slices.Clone(s.vals)}
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

// K builds a key from expressions.
func K(es ...*sym.Expr) Key { return Key(es) }

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
func NewDict(name string, makeVal func(c *Context, tag string) *Struct) *Dict {
	return &Dict{Name: name, MakeVal: makeVal}
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
		return &probe{tag: fmt.Sprintf("%s[%s]", d.Name, k.tag())}
	}
	pk := probeKey{dict: d.Name}
	copy(pk.key[:], k)
	p := c.x.probes[pk]
	if p == nil {
		p = &probe{tag: fmt.Sprintf("%s[%s]", d.Name, k.tag())}
		c.x.probes[pk] = p
	}
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
	e := &DictEntry{Key: k, Present: true, InitialProbe: true}
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
			d.entries = append(d.entries, e)
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
	d.entries = append(d.entries, e)
	c.initProbes[d.Name] = append(c.initProbes[d.Name], &initProbe{key: k, presentVar: e.InitPresentVar, val: e.Val})
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

// DictsEquivalent appends to dst the conjuncts stating that dictionaries a
// and b hold equal content at every key either path touched: per key, that
// membership agrees and, for each field, that present values agree.
// Untouched keys share the same initial-content variables by construction
// (content-derived naming), so they are equal by definition and need no
// clauses. sym.And of the result is the formula; conjoining the conjuncts
// once is what conjoining them per key and per dictionary would give.
//
// The conjuncts are a function of the dictionaries' name, the registered
// probes of that name and both overlays, and the exploration memoizes them
// by the identity of all three (see equivSig). A call that finds an
// earlier one's inputs Assumes again what that call Assumed — the
// invariants of the defaults' MakeVal — and appends its conjuncts.
func DictsEquivalent(dst []*sym.Expr, c *Context, a, b *Dict) []*sym.Expr {
	if a.Name != b.Name {
		panic("symx: comparing dictionaries with different identities")
	}
	if len(a.entries) == 0 && len(b.entries) == 0 {
		return dst // no key either path touched
	}
	probes := c.initProbes[a.Name]
	h, sig := c.x.equivSig(a.Name, probes, a, b)
	for _, m := range c.x.equivs[h] {
		if m.dict == a.Name && slices.Equal(m.sig, sig) {
			for _, cond := range m.assumed {
				c.Assume(cond)
			}
			return append(dst, m.conjs...)
		}
	}
	start, n := len(c.x.heard), len(dst)
	dst = dictsEquivalent(dst, c, probes, a, b)
	c.x.equivs[h] = append(c.x.equivs[h], &equivMemo{
		dict: a.Name, sig: slices.Clone(sig), conjs: slices.Clone(dst[n:]), assumed: c.heardSince(start),
	})
	return dst
}

// dictsEquivalent builds what DictsEquivalent appends. What the two sides
// and all fields of one key share is built once per key: the MakeVal
// default (one tag, so one probe whichever dictionary asks), and the
// guards comparing the key with every registered probe and every overlay
// entry.
func dictsEquivalent(dst []*sym.Expr, c *Context, probes []*initProbe, a, b *Dict) []*sym.Expr {
	keys := unionKeys(c, a, b)
	fields := fieldSet(a, b)
	var probeEq, aEq, bEq []*sym.Expr
	for _, k := range keys {
		probeEq = probeEq[:0]
		for _, ip := range probes {
			probeEq = append(probeEq, ip.key.eq(k.key))
		}
		aEq, bEq = a.entryGuards(aEq[:0], k.key), b.entryGuards(bEq[:0], k.key)

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
		if len(fields) > 0 {
			def = k.probe.value(c, a)
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
			dst = append(dst, sym.Implies(pa, sym.Eq(fa, fb)))
		}
	}
	return dst
}

// equivMemo is one DictsEquivalent call's outcome: the conjuncts it
// appended and the conditions it Assumed, under its dictionaries' name and
// its signature.
type equivMemo struct {
	dict           string
	sig            []sigWord
	conjs, assumed []*sym.Expr
}

// sigWord is one word of a DictsEquivalent signature: a node or a number.
// A stored signature holds its nodes, so none is collected while the memo
// may still match it.
type sigWord struct {
	e *sym.Expr
	n int
}

// equivSig writes into the exploration's scratch the signature of what
// DictsEquivalent reads besides the name — each registered probe's key,
// membership variable and value; each overlay entry's key, membership and
// value — and returns it with its hash, which covers the name too. A list
// is preceded by its length, and a value by its shape, so equal signatures
// are equal inputs.
func (x *exploration) equivSig(name string, probes []*initProbe, a, b *Dict) (uint64, []sigWord) {
	sig := append(x.sig[:0], sigWord{n: len(probes)})
	for _, ip := range probes {
		sig = appendKey(sig, ip.key)
		sig = append(sig, sigWord{e: ip.presentVar})
		sig = x.appendStruct(sig, ip.val)
	}
	for _, d := range [2]*Dict{a, b} {
		sig = append(sig, sigWord{n: len(d.entries)})
		for _, e := range d.entries {
			sig = appendKey(sig, e.Key)
			if e.Present {
				sig = x.appendStruct(sig, e.Val)
			} else {
				sig = append(sig, sigWord{n: -2})
			}
		}
	}
	x.sig = sig
	h := uint64(fnvOffset)
	for i := 0; i < len(name); i++ {
		h = (h ^ uint64(name[i])) * fnvPrime
	}
	for _, w := range sig {
		if w.e != nil {
			h = (h ^ w.e.ID()) * fnvPrime
		}
		h = (h ^ uint64(w.n)) * fnvPrime
	}
	return h, sig
}

const fnvOffset, fnvPrime = 14695981039346656037, 1099511628211

func appendKey(sig []sigWord, k Key) []sigWord {
	sig = append(sig, sigWord{n: len(k)})
	for _, e := range k {
		sig = append(sig, sigWord{e: e})
	}
	return sig
}

// appendStruct appends s's shape (-1 for no value) and its field values.
func (x *exploration) appendStruct(sig []sigWord, s *Struct) []sigWord {
	if s == nil {
		return append(sig, sigWord{n: -1})
	}
	sig = append(sig, sigWord{n: x.shape(s.FieldOrder)})
	for _, e := range s.vals {
		sig = append(sig, sigWord{e: e})
	}
	return sig
}

// shape numbers a field order: its index among the exploration's shapes,
// of which a model has a handful.
func (x *exploration) shape(fields []string) int {
	for i, s := range x.shapes {
		if slices.Equal(s, fields) {
			return i
		}
	}
	x.shapes = append(x.shapes, fields)
	return len(x.shapes) - 1
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

// unionKeys returns the union of overlay keys, deduplicated by tag.
func unionKeys(c *Context, a, b *Dict) []probedKey {
	var keys []probedKey
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
