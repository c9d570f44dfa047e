package sym

import "fmt"

// The reference evaluator. Production has one evaluator (evalBoolIdx and
// evalIntIdx, over the search's own Model); this file keeps the one it
// replaced, by-name map and fat values included, because it shares no code
// with the search: the differential tests and fuzz targets decide formulas
// by brute force through it and hold every Model a leaf receives to it.

// refValue is a concrete value of any sort.
type refValue struct {
	Sort Sort
	Int  int64 // integer value, or uninterpreted element id
	Bool bool
}

func (v refValue) String() string {
	switch v.Sort.Kind {
	case KindBool:
		return fmt.Sprintf("%v", v.Bool)
	case KindInt:
		return fmt.Sprintf("%d", v.Int)
	default:
		return fmt.Sprintf("%s!%d", v.Sort.Name, v.Int)
	}
}

// refModel maps variable names to concrete values.
type refModel map[string]refValue

// holds reports whether m decides e, and decides it true.
func (m refModel) holds(e *Expr) bool {
	v, ok := partialEval(e, m)
	return ok && v.Bool
}

// refValueOf is the word val of a variable of sort so as a refValue.
func refValueOf(so Sort, val int64) refValue {
	if so.Kind == KindBool {
		return refValue{Sort: so, Bool: val != 0}
	}
	return refValue{Sort: so, Int: val}
}

// byName copies what m binds of vars into a refModel, reading the words
// directly rather than through the evaluator under test.
func byName(m Model, vars []*Expr) refModel {
	out := refModel{}
	for _, v := range vars {
		if v.VarID < len(m.set) && m.set[v.VarID] {
			out[v.Name] = refValueOf(v.Sort, m.vals[v.VarID])
		}
	}
	return out
}

// modelOf asks the solver for the model binding each variable to its value
// (booleans 0/1), the way every test that needs a particular Model gets it.
func modelOf(vars []*Expr, vals ...int64) Model {
	conj := make([]*Expr, len(vars))
	for i, v := range vars {
		switch v.Sort.Kind {
		case KindBool:
			conj[i] = Eq(v, Bool(vals[i] != 0))
		case KindInt:
			conj[i] = Eq(v, Int(vals[i]))
		default:
			conj[i] = Eq(v, Const(v.Sort, vals[i]))
		}
	}
	m, ok := (&Solver{}).Solve(And(conj...))
	if !ok {
		panic("sym: no model of a conjunction of bindings")
	}
	return m
}

// partialEval evaluates e as far as the (possibly partial) assignment
// allows. The second result reports whether the value is determined. Boolean
// connectives short-circuit so that, e.g., a conjunction with one known-false
// conjunct is known false even when other conjuncts mention unassigned
// variables.
func partialEval(e *Expr, m refModel) (refValue, bool) {
	switch e.Op {
	case OpConst:
		return refValue{Sort: e.Sort, Int: e.Int, Bool: e.Bool}, true
	case OpVar:
		v, ok := m[e.Name]
		return v, ok
	case OpNot:
		v, ok := partialEval(e.Args[0], m)
		if !ok {
			return refValue{}, false
		}
		return refValue{Sort: BoolSort, Bool: !v.Bool}, true
	case OpAnd:
		all := true
		for _, a := range e.Args {
			v, ok := partialEval(a, m)
			if !ok {
				all = false
				continue
			}
			if !v.Bool {
				return refValue{Sort: BoolSort, Bool: false}, true
			}
		}
		return refValue{Sort: BoolSort, Bool: true}, all
	case OpOr:
		all := true
		for _, a := range e.Args {
			v, ok := partialEval(a, m)
			if !ok {
				all = false
				continue
			}
			if v.Bool {
				return refValue{Sort: BoolSort, Bool: true}, true
			}
		}
		return refValue{Sort: BoolSort, Bool: false}, all
	case OpEq:
		a, aok := partialEval(e.Args[0], m)
		b, bok := partialEval(e.Args[1], m)
		if !aok || !bok {
			return refValue{}, false
		}
		var eq bool
		if a.Sort.Kind == KindBool {
			eq = a.Bool == b.Bool
		} else {
			eq = a.Int == b.Int
		}
		return refValue{Sort: BoolSort, Bool: eq}, true
	case OpLt, OpLe:
		a, aok := partialEval(e.Args[0], m)
		b, bok := partialEval(e.Args[1], m)
		if !aok || !bok {
			return refValue{}, false
		}
		if e.Op == OpLt {
			return refValue{Sort: BoolSort, Bool: a.Int < b.Int}, true
		}
		return refValue{Sort: BoolSort, Bool: a.Int <= b.Int}, true
	case OpAdd, OpSub, OpMul:
		a, aok := partialEval(e.Args[0], m)
		b, bok := partialEval(e.Args[1], m)
		if !aok || !bok {
			return refValue{}, false
		}
		var r int64
		switch e.Op {
		case OpAdd:
			r = a.Int + b.Int
		case OpSub:
			r = a.Int - b.Int
		default:
			r = a.Int * b.Int
		}
		return refValue{Sort: IntSort, Int: r}, true
	case OpIte:
		c, cok := partialEval(e.Args[0], m)
		if !cok {
			// Both branches agreeing would still determine the value.
			a, aok := partialEval(e.Args[1], m)
			b, bok := partialEval(e.Args[2], m)
			if aok && bok && a.Sort == b.Sort && a.Int == b.Int && a.Bool == b.Bool {
				return a, true
			}
			return refValue{}, false
		}
		if c.Bool {
			return partialEval(e.Args[1], m)
		}
		return partialEval(e.Args[2], m)
	}
	panic("sym: unknown op")
}
