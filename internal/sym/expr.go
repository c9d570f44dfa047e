// Package sym implements a small symbolic-expression engine and a
// finite-model constraint solver. It stands in for the Z3 SMT solver that
// the COMMUTER prototype used: the POSIX interface model only generates
// constraints in the quantifier-free theory of equality over uninterpreted
// sorts plus bounded linear integer arithmetic and booleans, for which
// bounded model search with constraint propagation is complete.
//
// Expressions are hash-consed (see intern.go): the constructors intern
// every node, so structurally equal expressions are pointer-equal and the
// engine's walks, dedups and lookup tables all key on node identity.
package sym

import (
	"fmt"
	"sort"
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
// the package-level constructor functions, which canonicalize eagerly and
// hash-cons the result: two structurally equal constructor-built
// expressions are the same pointer.
type Expr struct {
	Op   Op
	Sort Sort
	// Int holds the value for integer constants and the element id for
	// uninterpreted-sort constants; Bool holds boolean constant values.
	Int  int64
	Bool bool
	// Name is the variable name for OpVar nodes; VarID is its interned
	// id, used by the solver for array-indexed assignments.
	Name  string
	VarID int
	Args  []*Expr

	// Interning metadata, set before publication and immutable after
	// (see intern.go). id is the interning identity a parent's hash is
	// built from. vars lists the free variables in first-occurrence order;
	// because conjunctions preserve construction order, that is the
	// chronological order in which path conditions constrained them, so
	// the solver assigns in this order and prunes failed prefixes early.
	// The list is shared between nodes and must not be mutated.
	id   uint64
	vars []*Expr
	// str caches the rendered canonical form; it is written at most a
	// handful of times with identical content, so racing stores are
	// harmless and loads never block.
	str atomic.Pointer[string]
}

// Variable names are interned process-wide so solver assignments can be
// dense arrays instead of string-keyed maps (the solver's hot path).
var (
	varMu  sync.Mutex
	varIDs = map[string]int{}
)

func internVar(name string) int {
	varMu.Lock()
	defer varMu.Unlock()
	id, ok := varIDs[name]
	if !ok {
		id = len(varIDs)
		varIDs[name] = id
	}
	return id
}

var (
	// True and False are the boolean constants.
	True  = intern(OpConst, BoolSort, 0, true, "", nil)
	False = intern(OpConst, BoolSort, 0, false, "", nil)
)

// Int returns the integer constant v.
func Int(v int64) *Expr { return intern(OpConst, IntSort, v, false, "", nil) }

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
	return intern(OpConst, s, id, false, "", nil)
}

// Var returns the free variable with the given name and sort; repeated
// calls return the same node.
func Var(name string, s Sort) *Expr {
	return intern(OpVar, s, 0, false, name, nil)
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
	return intern(OpNot, BoolSort, 0, false, "", []*Expr{a})
}

// And returns the conjunction of args, flattened, deduplicated and
// simplified. Argument order is preserved (first occurrence wins): the
// solver's variable-ordering heuristic depends on conjuncts appearing in
// the chronological order path conditions accumulated them.
func And(args ...*Expr) *Expr {
	var flat []*Expr
	for _, a := range args {
		if a.Sort.Kind != KindBool {
			panic("sym: And on non-boolean")
		}
		switch {
		case a.IsFalse():
			return False
		case a.IsTrue():
			continue
		case a.Op == OpAnd:
			flat = append(flat, a.Args...)
		default:
			flat = append(flat, a)
		}
	}
	flat = dedup(flat)
	switch len(flat) {
	case 0:
		return True
	case 1:
		return flat[0]
	}
	return intern(OpAnd, BoolSort, 0, false, "", flat)
}

// Or returns the disjunction of args, flattened, deduplicated and
// simplified, preserving first-occurrence order like And.
func Or(args ...*Expr) *Expr {
	var flat []*Expr
	for _, a := range args {
		if a.Sort.Kind != KindBool {
			panic("sym: Or on non-boolean")
		}
		switch {
		case a.IsTrue():
			return True
		case a.IsFalse():
			continue
		case a.Op == OpOr:
			flat = append(flat, a.Args...)
		default:
			flat = append(flat, a)
		}
	}
	flat = dedup(flat)
	switch len(flat) {
	case 0:
		return False
	case 1:
		return flat[0]
	}
	return intern(OpOr, BoolSort, 0, false, "", flat)
}

// dedup removes duplicate conjuncts/disjuncts, keeping first occurrences.
// Nodes are interned, so duplicates are pointer-equal; a hash set takes
// over past the sizes where a linear scan is cheaper.
func dedup(args []*Expr) []*Expr {
	out := make([]*Expr, 0, len(args))
	if len(args) <= 16 {
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
func Implies(a, b *Expr) *Expr { return Or(Not(a), b) }

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
	// Canonical argument order keeps dedup effective.
	if exprKey(b) < exprKey(a) {
		a, b = b, a
	}
	return intern(OpEq, BoolSort, 0, false, "", []*Expr{a, b})
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
	return intern(OpLt, BoolSort, 0, false, "", []*Expr{a, b})
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
	return intern(OpLe, BoolSort, 0, false, "", []*Expr{a, b})
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
	return intern(OpAdd, IntSort, 0, false, "", []*Expr{a, b})
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
	return intern(OpSub, IntSort, 0, false, "", []*Expr{a, b})
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
	return intern(OpMul, IntSort, 0, false, "", []*Expr{a, b})
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
		return Or(And(cond, a), And(Not(cond), b))
	}
	return intern(OpIte, a.Sort, 0, false, "", []*Expr{cond, a, b})
}

// Vars returns the free variables of e, sorted by name.
func Vars(e *Expr) []*Expr {
	out := append([]*Expr(nil), e.vars...)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// String renders the expression in a Lisp-like prefix form. The rendering
// is cached on the node, so ordering keys and content-derived tags
// amortize across repeated calls.
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

// exprKey returns a total-order key used only for canonicalization.
func exprKey(e *Expr) string { return e.String() }
