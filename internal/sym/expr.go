// Package sym implements a small symbolic-expression engine and a
// finite-model constraint solver. It stands in for the Z3 SMT solver that
// the COMMUTER prototype used: the interface models generate quantifier-free
// constraints over booleans, equality of uninterpreted sorts, and the
// integer fragment below.
//
// The integer fragment is what the four registered specs build, and
// analyzer's TestSpecsStayInTheIntegerFragment holds every path condition
// and SIM condition of every pair to it. An integer atom compares two terms
// with =, < or ≤, and a term is
//
//	t ::= x | c | t + t | t − t | ite(φ, t, t) | t · c
//
// for an integer variable x, an integer constant c and a formula φ of the
// same language. The coefficients are 1 everywhere except in one place: the
// product by a constant is kvspec's scan fingerprint, Σ (val+1)·weight,
// and no other spec multiplies. Over booleans and uninterpreted sorts the
// search's candidate domains are complete; over the integers they are the
// formula's constants and their neighbours (Solver.domains), so an integer
// refutation is not yet a proof for every formula of the fragment.
//
// Expressions are hash-consed (see intern.go): the constructors intern
// every node, so structurally equal expressions are pointer-equal and the
// engine's walks, dedups and lookup tables all key on node identity.
package sym

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
)

// SortKind distinguishes the three value sorts the engine supports.
type SortKind int

const (
	// KindBool is the sort of boolean expressions.
	KindBool SortKind = iota
	// KindInt is the sort of (mathematical) integer expressions.
	KindInt
	// KindUnint is an uninterpreted sort: values support only equality.
	KindUnint
)

// Sort identifies the sort of an expression. Uninterpreted sorts are
// distinguished by name ("Filename", "Inode", ...).
type Sort struct {
	Kind SortKind
	Name string
}

// BoolSort and IntSort are the built-in interpreted sorts.
var (
	BoolSort = Sort{Kind: KindBool}
	IntSort  = Sort{Kind: KindInt}
)

// Uninterpreted returns the uninterpreted sort with the given name.
func Uninterpreted(name string) Sort { return Sort{Kind: KindUnint, Name: name} }

func (s Sort) String() string {
	switch s.Kind {
	case KindBool:
		return "Bool"
	case KindInt:
		return "Int"
	default:
		return s.Name
	}
}

// Op enumerates expression node kinds.
type Op int

const (
	// OpConst is a literal boolean or integer (or uninterpreted-sort
	// element identified by a small integer).
	OpConst Op = iota
	// OpVar is a free variable.
	OpVar
	// OpNot, OpAnd, OpOr are the boolean connectives.
	OpNot
	OpAnd
	OpOr
	// OpEq is equality at any sort; OpLt and OpLe compare integers.
	OpEq
	OpLt
	OpLe
	// OpAdd, OpSub, OpMul are integer arithmetic.
	OpAdd
	OpSub
	OpMul
	// OpIte is if-then-else: Ite(cond, then, else).
	OpIte
)

// Expr is an immutable symbolic expression node. Construct expressions with
// Scope.Var and the package-level constructor functions, which canonicalize
// eagerly and hash-cons the result: two structurally equal
// constructor-built expressions of one scope are the same pointer.
type Expr struct {
	Op   Op
	Sort Sort
	// Int holds the value for integer constants and the element id for
	// uninterpreted-sort constants; Bool holds boolean constant values.
	Int  int64
	Bool bool
	// Name is the variable name for OpVar nodes; VarID is its interned
	// id, one per name and sort, used by the solver for array-indexed
	// assignments. Two variables of one scope with one VarID are one node.
	Name  string
	VarID int
	Args  []*Expr

	// Interning metadata, set before publication and immutable after
	// (see intern.go). id is the interning identity a parent's hash is
	// built from, scope the node's table (nil for a constant) and next the
	// node after it in its hash chain. vars lists the free variables in
	// first-occurrence order; because conjunctions preserve construction
	// order, that is the chronological order in which path conditions
	// constrained them, so the solver assigns in this order and prunes
	// failed prefixes early. The list is shared and must not be mutated.
	id    uint64
	scope *Scope
	next  *Expr
	vars  []*Expr
	// str caches the rendered canonical form; it is written at most a
	// handful of times with identical content, so racing stores are
	// harmless and loads never block.
	str atomic.Pointer[string]
}

// Variable ids are process-wide, one per name and sort, so solver
// assignments can be dense arrays instead of string-keyed maps (the
// solver's hot path). A variable made again, in another scope or after a
// reset, gets its old id back.
type varKey struct {
	name string
	sort Sort
}

var (
	varMu  sync.Mutex
	varIDs = map[varKey]int{}
)

func internVar(name string, s Sort) int {
	varMu.Lock()
	defer varMu.Unlock()
	k := varKey{name, s}
	id, ok := varIDs[k]
	if !ok {
		id = len(varIDs)
		varIDs[k] = id
	}
	return id
}

var (
	// True and False are the boolean constants.
	True  = internConst(BoolSort, 0, true)
	False = internConst(BoolSort, 0, false)
)

// Int returns the integer constant v.
func Int(v int64) *Expr { return internConst(IntSort, v, false) }

// Bool returns the boolean constant v.
func Bool(v bool) *Expr {
	if v {
		return True
	}
	return False
}

// Const returns element id of an uninterpreted sort as a constant. TESTGEN
// uses these to pin isomorphism-class representatives.
func Const(s Sort, id int64) *Expr {
	if s.Kind != KindUnint {
		panic("sym: Const requires an uninterpreted sort")
	}
	return internConst(s, id, false)
}

// IsConst reports whether e is a literal constant.
func (e *Expr) IsConst() bool { return e.Op == OpConst }

// IsTrue and IsFalse report whether e is the respective boolean constant.
func (e *Expr) IsTrue() bool  { return e.Op == OpConst && e.Sort.Kind == KindBool && e.Bool }
func (e *Expr) IsFalse() bool { return e.Op == OpConst && e.Sort.Kind == KindBool && !e.Bool }

func sameConst(a, b *Expr) bool {
	if a.Sort != b.Sort {
		return false
	}
	if a.Sort.Kind == KindBool {
		return a.Bool == b.Bool
	}
	return a.Int == b.Int
}

// Not returns the negation of a, simplified.
func Not(a *Expr) *Expr {
	if a.Sort.Kind != KindBool {
		panic("sym: Not on non-boolean")
	}
	switch {
	case a.IsTrue():
		return False
	case a.IsFalse():
		return True
	case a.Op == OpNot:
		return a.Args[0]
	}
	return intern(OpNot, BoolSort, []*Expr{a})
}

// And returns the conjunction of args, flattened, deduplicated and
// simplified. Argument order is preserved (first occurrence wins): the
// solver's variable-ordering heuristic depends on conjuncts appearing in
// the chronological order path conditions accumulated them.
//
// One level of flattening suffices — an And node's arguments are never And
// nodes — so And(And(xs...), And(ys...)) is the very node And(xs..., ys...)
// is: callers may collect conjuncts flat and conjoin them once.
func And(args ...*Expr) *Expr { return junction(OpAnd, True, args) }

// or returns the disjunction of args, flattened, deduplicated and
// simplified, preserving first-occurrence order like And.
func or(args ...*Expr) *Expr { return junction(OpOr, False, args) }

// junction builds the connective op over args: nested op nodes spliced in,
// unit (the identity) dropped, its negation absorbing everything. Up to
// junctionStack flattened arguments live in a stack buffer, and dedup's
// table is on the stack as well, so a junction that finds its node
// allocates nothing.
func junction(op Op, unit *Expr, args []*Expr) *Expr {
	var buf [junctionStack]*Expr
	flat := buf[:0]
	for _, a := range args {
		if a.Sort.Kind != KindBool {
			panic("sym: " + opName(op) + " on non-boolean")
		}
		switch {
		case a.Op == OpConst && a.Bool == unit.Bool:
			continue
		case a.Op == OpConst:
			return Not(unit)
		case a.Op == op:
			flat = append(flat, a.Args...)
		default:
			flat = append(flat, a)
		}
	}
	flat = dedup(flat)
	switch len(flat) {
	case 0:
		return unit
	case 1:
		return flat[0]
	}
	return intern(op, BoolSort, flat)
}

// junctionStack bounds the flattened arguments junction and dedup keep on
// the stack; past it they fall back to the heap.
const junctionStack = 128

// dedup's open-addressing table has 1<<dedupBits slots, twice
// junctionStack, so probes stay short.
const (
	dedupBits  = 8
	dedupTable = 1 << dedupBits
)

// dedup removes duplicate conjuncts/disjuncts in place, keeping first
// occurrences. Nodes are interned, so duplicates are pointer-equal. A
// linear scan serves short lists, an open-addressing table on the stack,
// keyed by interning id, lists up to junctionStack, and a map longer ones.
func dedup(args []*Expr) []*Expr {
	out := args[:0]
	switch {
	case len(args) <= 16:
	outer:
		for _, a := range args {
			for _, b := range out {
				if a == b {
					continue outer
				}
			}
			out = append(out, a)
		}
		return out
	case len(args) <= junctionStack:
		var table [dedupTable]*Expr
		for _, a := range args {
			// Fibonacci hashing spreads the sequential ids over the table.
			i := a.id * 0x9E3779B97F4A7C15 >> (64 - dedupBits)
			for table[i] != nil && table[i] != a {
				i = (i + 1) % dedupTable
			}
			if table[i] == nil {
				table[i] = a
				out = append(out, a)
			}
		}
		return out
	}
	seen := make(map[*Expr]struct{}, len(args))
	for _, a := range args {
		if _, ok := seen[a]; !ok {
			seen[a] = struct{}{}
			out = append(out, a)
		}
	}
	return out
}

// Implies returns a → b.
func Implies(a, b *Expr) *Expr { return or(Not(a), b) }

// Eq returns a == b; the operands must share a sort.
func Eq(a, b *Expr) *Expr {
	if a.Sort != b.Sort {
		panic(fmt.Sprintf("sym: Eq sort mismatch: %v vs %v", a.Sort, b.Sort))
	}
	if a.IsConst() && b.IsConst() {
		return Bool(sameConst(a, b))
	}
	if a == b {
		return True
	}
	if a.Sort.Kind == KindBool {
		switch {
		case a.IsTrue():
			return b
		case a.IsFalse():
			return Not(b)
		case b.IsTrue():
			return a
		case b.IsFalse():
			return Not(a)
		}
	}
	// Canonical argument order keeps dedup effective: the operands in the
	// order of their renderings, compared without building them.
	if compareRendered(b, a) < 0 {
		a, b = b, a
	}
	return intern(OpEq, BoolSort, []*Expr{a, b})
}

// Ne returns a != b.
func Ne(a, b *Expr) *Expr { return Not(Eq(a, b)) }

// Lt returns the integer comparison a < b.
func Lt(a, b *Expr) *Expr {
	checkInt("Lt", a, b)
	if a.IsConst() && b.IsConst() {
		return Bool(a.Int < b.Int)
	}
	if a == b {
		return False
	}
	return intern(OpLt, BoolSort, []*Expr{a, b})
}

// Le returns the integer comparison a <= b.
func Le(a, b *Expr) *Expr {
	checkInt("Le", a, b)
	if a.IsConst() && b.IsConst() {
		return Bool(a.Int <= b.Int)
	}
	if a == b {
		return True
	}
	return intern(OpLe, BoolSort, []*Expr{a, b})
}

// Gt and Ge are the flipped comparisons.
func Gt(a, b *Expr) *Expr { return Lt(b, a) }
func Ge(a, b *Expr) *Expr { return Le(b, a) }

func checkInt(op string, args ...*Expr) {
	for _, a := range args {
		if a.Sort.Kind != KindInt {
			panic("sym: " + op + " on non-integer")
		}
	}
}

// Add returns a + b.
func Add(a, b *Expr) *Expr {
	checkInt("Add", a, b)
	if a.IsConst() && b.IsConst() {
		return Int(a.Int + b.Int)
	}
	if a.IsConst() && a.Int == 0 {
		return b
	}
	if b.IsConst() && b.Int == 0 {
		return a
	}
	return intern(OpAdd, IntSort, []*Expr{a, b})
}

// Sub returns a - b.
func Sub(a, b *Expr) *Expr {
	checkInt("Sub", a, b)
	if a.IsConst() && b.IsConst() {
		return Int(a.Int - b.Int)
	}
	if b.IsConst() && b.Int == 0 {
		return a
	}
	if a == b {
		return Int(0)
	}
	return intern(OpSub, IntSort, []*Expr{a, b})
}

// Mul returns a * b.
func Mul(a, b *Expr) *Expr {
	checkInt("Mul", a, b)
	if a.IsConst() && b.IsConst() {
		return Int(a.Int * b.Int)
	}
	if a.IsConst() {
		a, b = b, a
	}
	if b.IsConst() {
		switch b.Int {
		case 0:
			return Int(0)
		case 1:
			return a
		}
	}
	return intern(OpMul, IntSort, []*Expr{a, b})
}

// Ite returns if cond then a else b; a and b must share a sort.
func Ite(cond, a, b *Expr) *Expr {
	if cond.Sort.Kind != KindBool {
		panic("sym: Ite condition must be boolean")
	}
	if a.Sort != b.Sort {
		panic("sym: Ite branch sort mismatch")
	}
	switch {
	case cond.IsTrue():
		return a
	case cond.IsFalse():
		return b
	case a == b:
		return a
	}
	if a.Sort.Kind == KindBool {
		// Encode boolean ITE with connectives so the solver's
		// propagation sees through it.
		return or(And(cond, a), And(Not(cond), b))
	}
	return intern(OpIte, a.Sort, []*Expr{cond, a, b})
}

// Vars returns the free variables of e, sorted by name.
func Vars(e *Expr) []*Expr { return sortByName(slices.Clone(e.vars)) }

// AppendVarsConjs appends to dst Vars of the conjunction of conjs, without
// building it: the free variables of every conjunct, once each, sorted by
// name.
func AppendVarsConjs(dst, conjs []*Expr) []*Expr {
	start := len(dst)
	dst = unionVars(dst, conjs)
	sortByName(dst[start:])
	return dst
}

func sortByName(vars []*Expr) []*Expr {
	slices.SortFunc(vars, func(a, b *Expr) int { return strings.Compare(a.Name, b.Name) })
	return vars
}

// String renders the expression in a Lisp-like prefix form. The rendering
// is cached on the node, so content-derived tags amortize across repeated
// calls.
func (e *Expr) String() string {
	if s := e.str.Load(); s != nil {
		return *s
	}
	var b strings.Builder
	e.render(&b)
	s := b.String()
	e.str.Store(&s)
	return s
}

func (e *Expr) render(b *strings.Builder) {
	if s := e.str.Load(); s != nil {
		b.WriteString(*s)
		return
	}
	switch e.Op {
	case OpConst:
		switch e.Sort.Kind {
		case KindBool:
			fmt.Fprintf(b, "%v", e.Bool)
		case KindInt:
			fmt.Fprintf(b, "%d", e.Int)
		default:
			fmt.Fprintf(b, "%s!%d", e.Sort.Name, e.Int)
		}
	case OpVar:
		b.WriteString(e.Name)
	default:
		b.WriteByte('(')
		b.WriteString(opName(e.Op))
		for _, a := range e.Args {
			b.WriteByte(' ')
			a.render(b)
		}
		b.WriteByte(')')
	}
}

func opName(op Op) string {
	switch op {
	case OpNot:
		return "not"
	case OpAnd:
		return "and"
	case OpOr:
		return "or"
	case OpEq:
		return "="
	case OpLt:
		return "<"
	case OpLe:
		return "<="
	case OpAdd:
		return "+"
	case OpSub:
		return "-"
	case OpMul:
		return "*"
	case OpIte:
		return "ite"
	default:
		return "?"
	}
}
