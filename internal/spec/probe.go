package spec

import (
	"slices"

	"repro/internal/sym"
	"repro/internal/symx"
)

// Probe is one evaluated initial-state dictionary probe: the concrete key
// a test setup must populate, plus the probed value's fields evaluated
// under the model assignment. A spec's SetupMiner mines these to rebuild a
// realizable initial state. A Probe points into its ProbePlan's storage and
// is valid until the plan's next Eval, Plan or Clear.
type Probe struct {
	Key []int64
	// names is the probed value's field order; vals holds each field's
	// value, booleans as 0/1.
	names []string
	vals  []int64
}

// Field returns the named field's value, 0 when the probed value has no
// such field.
func (p Probe) Field(name string) int64 {
	for i, n := range p.names {
		if n == name {
			return p.vals[i]
		}
	}
	return 0
}

// Bool returns the named boolean field's value.
func (p Probe) Bool(name string) bool { return p.Field(name) != 0 }

// ProbePlan is the half of mining one dictionary's initial probes that no
// model decides: which entries of both permutations' states are initial
// probes, in walk order, and storage for what they evaluate to. A spec's
// SetupMiner keeps one per dictionary, re-plans it in place once per path
// and evaluates it once per model. The zero ProbePlan plans nothing.
type ProbePlan struct {
	entries []*symx.DictEntry
	// keys[i] is entries[i]'s key under the current model, kept for absent
	// entries too: a location's first entry decides it. ints backs every
	// key and field value and is sized so that it never moves.
	keys [][]int64
	ints []int64
	out  []Probe
}

// Plan replaces the plan with the initial-probe entries of one dictionary
// from both permutations' states, keeping the storage the last plan grew.
func (pl *ProbePlan) Plan(dicts ...*symx.Dict) {
	pl.Clear()
	n := 0
	for _, d := range dicts {
		for _, e := range d.Entries() {
			if !e.InitialProbe {
				continue
			}
			pl.entries = append(pl.entries, e)
			n += len(e.Key)
			if e.InitVal != nil {
				n += len(e.InitVal.FieldOrder)
			}
		}
	}
	if cap(pl.ints) < n {
		pl.ints = make([]int64, 0, n)
	}
}

// Clear empties the plan, dropping every reference into the last path's
// states and probes while keeping the storage.
func (pl *ProbePlan) Clear() {
	clear(pl.entries)
	clear(pl.out[:cap(pl.out)])
	pl.entries, pl.keys, pl.out = pl.entries[:0], pl.keys[:0], pl.out[:0]
}

// Eval evaluates the plan's probes under m — booleans as 0/1, what m leaves
// undetermined as zero — deduplicating by concrete key and dropping absent
// locations (only present initial content needs materializing). The result
// is valid until the plan's next Eval, Plan or Clear.
func (pl *ProbePlan) Eval(m sym.Model) []Probe {
	pl.keys, pl.ints, pl.out = pl.keys[:0], pl.ints[:0], pl.out[:0]
entries:
	for _, e := range pl.entries {
		at := len(pl.ints)
		for _, ke := range e.Key {
			pl.ints = append(pl.ints, m.Int(ke, 0))
		}
		key := pl.ints[at:]
		for _, k := range pl.keys {
			if slices.Equal(k, key) {
				pl.ints = pl.ints[:at]
				continue entries
			}
		}
		pl.keys = append(pl.keys, key)
		if e.InitPresentVar != nil && !m.Bool(e.InitPresentVar, false) {
			continue
		}
		p := Probe{Key: key}
		if e.InitVal != nil {
			at = len(pl.ints)
			p.names = e.InitVal.FieldOrder
			for _, name := range p.names {
				pl.ints = append(pl.ints, m.Int(e.InitVal.Get(name), 0))
			}
			p.vals = pl.ints[at:]
		}
		pl.out = append(pl.out, p)
	}
	return pl.out
}

// AppendBacklog appends to dst one FIFO's concrete backlog, mined from a
// probed cursor pair: head and tail are clamped into [0, max] (tail at
// least head), and the values queued between them are appended oldest
// first. The zero Probe and a nil map are fine — an unprobed FIFO has an
// empty backlog.
func AppendBacklog(dst []int64, cursors Probe, vals map[int64]int64, max int64) []int64 {
	h := Clamp(cursors.Field("head"), 0, max)
	t := Clamp(cursors.Field("tail"), h, max)
	for seq := h; seq < t; seq++ {
		dst = append(dst, vals[seq])
	}
	return dst
}

// OrNil returns s, or nil when s is empty. A miner builds a setup's
// fields in storage it reuses, so an empty one is not nil; a test's setup
// has always had nil there, and its JSON reads null.
func OrNil[T any](s []T) []T {
	if len(s) == 0 {
		return nil
	}
	return s
}

// Clamp bounds v to [lo, hi]; the miners use it to keep mined values
// inside the bounds a realizable setup supports.
func Clamp(v, lo, hi int64) int64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
