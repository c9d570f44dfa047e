package spec

import (
	"fmt"

	"repro/internal/sym"
	"repro/internal/symx"
)

// Probe is one evaluated initial-state dictionary probe: the concrete key
// a test setup must populate, plus the probed value's fields evaluated
// under the model assignment. Concretizers mine these to rebuild a
// realizable initial state.
type Probe struct {
	Key    []int64
	Fields map[string]int64
	Bools  map[string]bool
}

// CollectProbes evaluates the initial probes of one dictionary from both
// permutations' states, deduplicating by concrete key and dropping absent
// locations (only present initial content needs materializing).
func CollectProbes(m sym.Model, dicts ...*symx.Dict) []Probe {
	var out []Probe
	seen := map[string]bool{}
	for _, d := range dicts {
		for _, e := range d.Entries() {
			if !e.InitialProbe {
				continue
			}
			key := make([]int64, len(e.Key))
			ks := ""
			for i, ke := range e.Key {
				if ke.Sort.Kind == sym.KindBool {
					if EvalBool(m, ke, false) {
						key[i] = 1
					}
				} else {
					key[i] = EvalInt(m, ke, 0)
				}
				ks += fmt.Sprintf(",%d", key[i])
			}
			if seen[ks] {
				continue
			}
			seen[ks] = true
			p := Probe{Key: key, Fields: map[string]int64{}, Bools: map[string]bool{}}
			present := true
			if e.InitPresentVar != nil {
				present = EvalBool(m, e.InitPresentVar, false)
			}
			if present && e.InitVal != nil {
				for name, fe := range e.InitVal.Fields {
					if fe.Sort.Kind == sym.KindBool {
						p.Bools[name] = EvalBool(m, fe, false)
					} else {
						p.Fields[name] = EvalInt(m, fe, 0)
					}
				}
			}
			if present {
				out = append(out, p)
			}
		}
	}
	return out
}

// EvalInt evaluates e under m, defaulting to def when m leaves it
// undetermined (the variable was irrelevant to the condition).
func EvalInt(m sym.Model, e *sym.Expr, def int64) int64 {
	if v, ok := m.TryEval(e); ok {
		return v.Int
	}
	return def
}

// EvalBool is EvalInt for boolean expressions.
func EvalBool(m sym.Model, e *sym.Expr, def bool) bool {
	if v, ok := m.TryEval(e); ok {
		return v.Bool
	}
	return def
}

// BacklogItems mines one FIFO's concrete backlog from a probed cursor
// pair: head and tail are clamped into [0, max] (tail at least head), and
// the values queued between them are returned oldest first. Both nil maps
// are fine — an unprobed FIFO yields an empty backlog.
func BacklogItems(fields map[string]int64, vals map[int64]int64, max int64) []int64 {
	h := Clamp(fields["head"], 0, max)
	t := Clamp(fields["tail"], h, max)
	var items []int64
	for seq := h; seq < t; seq++ {
		items = append(items, vals[seq])
	}
	return items
}

// Clamp bounds v to [lo, hi]; concretizers use it to keep mined values
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
