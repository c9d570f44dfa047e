package sym

import (
	"slices"
	"time"
)

// Model is an assignment of variables: one int64 word per interned
// variable id — a boolean as 0 or 1, an element of an uninterpreted sort as
// its id, an integer as itself — and a flag per id saying whether the
// variable is bound. It is the assignment the search itself fills, not a
// copy of it: the Model an EnumerateConjs leaf receives binds exactly the
// formula's variables and is valid until the leaf returns, after which the
// search rebinds it. The zero Model binds nothing.
type Model struct {
	vals []int64
	set  []bool
}

// Int evaluates e under m, a boolean expression as 0 or 1, and returns def
// where m leaves it undetermined (a variable the formula never mentioned).
func (m Model) Int(e *Expr, def int64) int64 {
	if e.Sort.Kind == KindBool {
		if m.Bool(e, def != 0) {
			return 1
		}
		return 0
	}
	if v, ok := evalIntIdx(e, &m); ok {
		return v
	}
	return def
}

// Bool is Int for a boolean expression.
func (m Model) Bool(e *Expr, def bool) bool {
	if v, ok := evalBoolIdx(e, &m); ok {
		return v
	}
	return def
}

// evalBoolIdx and evalIntIdx are the one evaluator: the search prunes with
// them and a Model answers through them. They evaluate e as far as the
// (possibly partial) assignment allows, specialized by result kind; known
// reports whether the value is determined. Boolean connectives
// short-circuit so that, e.g., a conjunction with one known-false conjunct
// is known false even when other conjuncts mention unbound variables.
func evalBoolIdx(e *Expr, a *Model) (res, known bool) {
	switch e.Op {
	case OpConst:
		return e.Bool, true
	case OpVar:
		if e.VarID < len(a.set) && a.set[e.VarID] {
			return a.vals[e.VarID] != 0, true
		}
		return false, false
	case OpNot:
		v, ok := evalBoolIdx(e.Args[0], a)
		return !v, ok
	case OpAnd:
		all := true
		for _, x := range e.Args {
			v, ok := evalBoolIdx(x, a)
			if !ok {
				all = false
				continue
			}
			if !v {
				return false, true
			}
		}
		return true, all
	case OpOr:
		all := true
		for _, x := range e.Args {
			v, ok := evalBoolIdx(x, a)
			if !ok {
				all = false
				continue
			}
			if v {
				return true, true
			}
		}
		return false, all
	case OpEq:
		if e.Args[0].Sort.Kind == KindBool {
			x, xok := evalBoolIdx(e.Args[0], a)
			y, yok := evalBoolIdx(e.Args[1], a)
			if !xok || !yok {
				return false, false
			}
			return x == y, true
		}
		x, xok := evalIntIdx(e.Args[0], a)
		y, yok := evalIntIdx(e.Args[1], a)
		if !xok || !yok {
			return false, false
		}
		return x == y, true
	case OpLt, OpLe:
		x, xok := evalIntIdx(e.Args[0], a)
		y, yok := evalIntIdx(e.Args[1], a)
		if !xok || !yok {
			return false, false
		}
		if e.Op == OpLt {
			return x < y, true
		}
		return x <= y, true
	}
	panic("sym: non-boolean op in evalBoolIdx")
}

// evalIntIdx evaluates integer and uninterpreted-sort expressions (both
// carry their value in Int) over an array-indexed assignment.
func evalIntIdx(e *Expr, a *Model) (res int64, known bool) {
	switch e.Op {
	case OpConst:
		return e.Int, true
	case OpVar:
		if e.VarID < len(a.set) && a.set[e.VarID] {
			return a.vals[e.VarID], true
		}
		return 0, false
	case OpAdd, OpSub, OpMul:
		x, xok := evalIntIdx(e.Args[0], a)
		y, yok := evalIntIdx(e.Args[1], a)
		if !xok || !yok {
			return 0, false
		}
		switch e.Op {
		case OpAdd:
			return x + y, true
		case OpSub:
			return x - y, true
		default:
			return x * y, true
		}
	case OpIte:
		c, cok := evalBoolIdx(e.Args[0], a)
		if !cok {
			// Both branches agreeing would still determine the value.
			x, xok := evalIntIdx(e.Args[1], a)
			y, yok := evalIntIdx(e.Args[2], a)
			if xok && yok && x == y {
				return x, true
			}
			return 0, false
		}
		if c {
			return evalIntIdx(e.Args[1], a)
		}
		return evalIntIdx(e.Args[2], a)
	}
	panic("sym: non-integer op in evalIntIdx")
}

// Solver decides satisfiability of boolean expressions over finite
// candidate domains and enumerates their models. The zero value is ready
// to use.
//
// There is one evaluator (evalBoolIdx, evalIntIdx) and one value word: the
// search binds int64s in a Model, prunes by evaluating conjuncts under it,
// and hands that same Model to an EnumerateConjs leaf, which reads it through
// the same evaluator.
//
// A Solver owns the scratch its searches work in — the assignment,
// the variable positions, the candidate domains, the per-depth conjunct
// lists — and clears and reuses it from one search to the next instead of
// reallocating it, so every search a sweep worker's solver serves, over all
// the pairs it runs, costs one set of buffers, sized once to the variables
// interned so far; the constant walk marks the nodes it visits instead of
// keeping a set, so a search writes to the scope of its formula, which one
// goroutine at a time uses. It follows that
// a Solver is not safe for concurrent use, and not for re-entrant use
// either (starting another search from inside an EnumerateConjs callback): a
// second search would overwrite the first one's domains, and panics
// instead. Use separate Solver values for nested or parallel searches.
//
// A Solver also remembers every answer a SatAssumingConjs search ran to
// the end for (see there), until Forget. The pipeline keeps one Solver per
// sweep worker for both symbolic phases of every pair the worker runs, and
// forgets at the start of each pair: the answers, the nodes of the
// Solver's Scope and what its Region holds live as long as a pair, so a
// pair's answers and counts are a fresh Solver's; the scratch, and the
// storage of the answers, the nodes and the Region, live as long as the
// worker and are reused from pair to pair. A fresh Solver is one with
// empty storage.
type Solver struct {
	// MaxSteps bounds the backtracking search (default 5,000,000 node
	// visits). When the budget is exhausted, Sat and its kin report
	// unsatisfiable and Budget reports true: the result is "unknown", and
	// callers that treat it as a definite "no" under-approximate.
	MaxSteps int
	// Stop, when non-nil, is polled every stopCheckMask+1 node visits of
	// the backtracking search; when it returns true the search aborts
	// exactly like budget exhaustion (unsatisfiable + Budget() true). It
	// is how context cancellation reaches a long-running search: the
	// symbolic executor installs a hook that reports ctx.Err() != nil, so
	// a cancelled pipeline stops mid-search instead of at the next
	// between-searches checkpoint.
	Stop func() bool

	steps     int
	exceeded  bool
	searching bool
	stats     SolverStats

	// memo holds the answers of SatAssumingConjs's completed searches,
	// each under its key: the ids of the conjuncts searched, in search
	// order, kept back to back in memoKeys. memoAt maps a key's hash to
	// the newest entry of that hash, and each entry to the one before it.
	// Forget empties all three and keeps their storage.
	memo     []memoEntry
	memoAt   map[uint64]int
	memoKeys []uint64
	scope    *Scope // see Scope

	// Scratch indexed by interned variable id (see growVars for its size).
	// Backtracking always unsets what it set, so the assignment binds
	// nothing between searches; varPos (1 + the variable's position in doms,
	// 0 for a variable not in the search) is zeroed from the previous
	// search's doms when the next one starts.
	asn    Model
	varPos []int
	inCone []bool // all false between cone computations

	// Scratch of the query in progress (see SatAssumingConjs, domains and
	// search).
	coneVars    []int
	used        []bool
	ordered     []*Expr
	key         []uint64
	doms        []domain
	completedAt [][]*Expr
	conf        []uint64
	ints        []int64
	sorts       []sortDomain
}

// SolverStats counts one Solver's search work since construction. A
// Solver is single-flight, so reads are only consistent between calls —
// the pipeline snapshots stats per pair to attribute solver work to the
// pair that caused it.
type SolverStats struct {
	// SatCalls counts backtracking searches started (every public
	// entry point — Sat, EnumerateConjs, SatAssuming — funnels into
	// exactly one search; syntactic short-circuits that avoid the search
	// entirely are not counted).
	SatCalls int64
	// MemoHits counts the searches SatAssumingConjs did not run because
	// the Solver remembered the answer.
	MemoHits int64
	// BudgetHits counts searches that exhausted MaxSteps (or were aborted
	// by the Stop hook): answers that are "unknown", not proofs.
	BudgetHits int64
	// SearchTime is the wall time spent inside searches.
	SearchTime time.Duration
}

// Stats returns the cumulative search counters.
func (s *Solver) Stats() SolverStats { return s.stats }

// memoEntry is one remembered answer: its key is memoKeys[start:end], and
// prev is 1 + the index of the entry before it with the same hash, or 0.
type memoEntry struct {
	start, end, prev int
	sat              bool
}

// Forget drops every remembered answer and resets the Solver's scope —
// its nodes and its Region — and keeps the scratch, the storage and the
// counters: from here on the Solver answers, and counts searches and memo
// hits, as a fresh one would. Nothing built before the reset may be used
// after it (see intern.go), so the scratch lets go of the last search's
// nodes here: a second reset hands their slots out again, and a search
// that read them then would clear the variable positions of other
// variables.
func (s *Solver) Forget() {
	s.forgetAnswers()
	for _, d := range s.doms {
		s.varPos[d.v.VarID] = 0
	}
	clear(s.doms[:cap(s.doms)])
	s.doms = s.doms[:0]
	clear(s.ordered[:cap(s.ordered)])
	for i := range s.completedAt {
		clear(s.completedAt[i][:cap(s.completedAt[i])])
	}
	s.Scope().reset()
}

// forgetAnswers drops every remembered answer, keeping the memo's storage.
func (s *Solver) forgetAnswers() {
	s.memo, s.memoKeys = s.memo[:0], s.memoKeys[:0]
	clear(s.memoAt)
}

// recall returns the remembered answer to the search s.key describes,
// whose hash is h. The keys are compared whole, so two searches whose
// keys collide in h are told apart.
func (s *Solver) recall(h uint64) (sat, ok bool) {
	for i := s.memoAt[h]; i != 0; i = s.memo[i-1].prev {
		if e := &s.memo[i-1]; slices.Equal(s.memoKeys[e.start:e.end], s.key) {
			return e.sat, true
		}
	}
	return false, false
}

// remember records sat as the answer to the search s.key describes, whose
// hash is h.
func (s *Solver) remember(h uint64, sat bool) {
	if s.memoAt == nil {
		s.memoAt = map[uint64]int{}
	}
	start := len(s.memoKeys)
	s.memoKeys = append(s.memoKeys, s.key...)
	s.memo = append(s.memo, memoEntry{start: start, end: len(s.memoKeys), prev: s.memoAt[h], sat: sat})
	s.memoAt[h] = len(s.memo)
}

// Scope returns the Solver's intern scope, where the explorations and
// generation passes run on the Solver make their variables.
func (s *Solver) Scope() *Scope {
	if s.scope == nil {
		s.scope = &Scope{m: map[uint64]*Expr{}, gen: scopeGens.Add(1), vars: map[varKey]scopeVar{}}
	}
	return s.scope
}

// Budget reports whether the previous Sat/EnumerateConjs/SatAssuming call
// ran out of steps before exhausting the search space — i.e. whether an
// unsatisfiable answer from that call is actually "unknown". A search
// interrupted by the Stop hook reports the same way: its negative answer
// is not a proof either.
func (s *Solver) Budget() bool { return s.exceeded }

// stopCheckMask throttles the Stop hook to one poll per 1024 node visits:
// frequent enough that cancellation lands within microseconds, cheap
// enough that the hook (typically a ctx.Err() check behind a mutex) never
// shows up in search profiles.
const stopCheckMask = 1<<10 - 1

type domain struct {
	v    *Expr
	vals []int64
}

// sortDomain is what one search knows about one uninterpreted sort. A
// Solver meets a handful of sorts in its life, so records are kept for
// good and only emptied between searches.
type sortDomain struct {
	sort  Sort
	nvars int     // variables of the sort in the search
	ids   []int64 // element ids: the formula's constants, then the domain
}

// sortDom returns the record of sort so, adding it on first sight. The
// pointer is good until the next call.
func (s *Solver) sortDom(so Sort) *sortDomain {
	for i := range s.sorts {
		if s.sorts[i].sort == so {
			return &s.sorts[i]
		}
	}
	s.sorts = append(s.sorts, sortDomain{sort: so})
	return &s.sorts[len(s.sorts)-1]
}

// growVars sizes the variable-indexed scratch for every variable id handed
// out so far, so a Solver grows once unless new names are interned under
// it. Only varPos and inCone carry state while a query is being set up.
func (s *Solver) growVars() {
	varMu.Lock()
	n := len(varIDs)
	varMu.Unlock()
	s.varPos = append(s.varPos, make([]int, n-len(s.varPos))...)
	s.inCone = append(s.inCone, make([]bool, n-len(s.inCone))...)
	s.asn = Model{vals: make([]int64, n), set: make([]bool, n)}
}

// collectConsts records the integer and uninterpreted constants under x.
// The walk visits a node once: it marks the node with its scope's stamp,
// which domains advances at every walk, so the shared subterms of the
// hash-consed DAG contribute their constants once. A constant, the one
// node every goroutine's scopes share, is not marked: a repeat of one is
// compacted away with the domain.
func (s *Solver) collectConsts(x *Expr) {
	if x.Op == OpConst {
		switch x.Sort.Kind {
		case KindInt:
			s.ints = append(s.ints, x.Int-1, x.Int, x.Int+1)
		case KindUnint:
			sd := s.sortDom(x.Sort)
			sd.ids = append(sd.ids, x.Int)
		}
		return
	}
	if x.mark == x.scope.walk {
		return
	}
	x.mark = x.scope.walk
	for _, a := range x.Args {
		s.collectConsts(a)
	}
}

// domains computes a finite candidate domain for every free variable of
// the conjunct list, in first-occurrence order, into the Solver's scratch:
// the result and every vals slice in it are valid until the next search.
//
// Booleans get {0, 1}. Each uninterpreted sort gets n element ids
// besides its constants in the formula, the smallest ones that are not
// among those, where n is the number of variables of that sort: by the
// small-model property of equality logic this is sufficient.
// Integers get every integer constant of the formula, plus 0 and 1, each
// with its two neighbours.
func (s *Solver) domains(conjs []*Expr) []domain {
	for _, d := range s.doms {
		s.varPos[d.v.VarID] = 0
	}
	for i := range s.sorts {
		sd := &s.sorts[i]
		sd.nvars, sd.ids = 0, sd.ids[:0]
	}
	doms := s.doms[:0]
	for _, c := range conjs {
		for _, v := range c.vars {
			if v.VarID >= len(s.varPos) {
				s.growVars()
			}
			if s.varPos[v.VarID] != 0 {
				continue
			}
			doms = append(doms, domain{v: v})
			s.varPos[v.VarID] = len(doms)
			if v.Sort.Kind == KindUnint {
				s.sortDom(v.Sort).nvars++
			}
		}
	}
	s.doms = doms

	// A new stamp for each scope the conjuncts belong to (one, in a pair's
	// searches): every node of the walk is unmarked.
	var last *Scope
	for _, c := range conjs {
		if c.scope != nil && c.scope != last {
			c.scope.walk++
			last = c.scope
		}
	}
	s.ints = append(s.ints[:0], -1, 0, 1, 2)
	for _, c := range conjs {
		s.collectConsts(c)
	}
	slices.Sort(s.ints)
	s.ints = slices.Compact(s.ints)
	for i := range s.sorts {
		sd := &s.sorts[i]
		slices.Sort(sd.ids)
		sd.ids = slices.Compact(sd.ids)
		consts := sd.ids
		for next := int64(0); len(sd.ids) < len(consts)+sd.nvars; next++ {
			if _, isConst := slices.BinarySearch(consts, next); !isConst {
				sd.ids = append(sd.ids, next)
			}
		}
		slices.Sort(sd.ids)
	}

	// Candidate value slices are shared between same-sort variables and
	// never mutated by the search.
	for i := range doms {
		d := &doms[i]
		switch d.v.Sort.Kind {
		case KindBool:
			d.vals = boolVals
		case KindInt:
			d.vals = s.ints
		case KindUnint:
			d.vals = s.sortDom(d.v.Sort).ids
		}
	}
	return doms
}

// boolVals is the shared candidate domain of every boolean variable.
var boolVals = []int64{0, 1}

// Sat reports whether e is satisfiable over the finite candidate domains.
func (s *Solver) Sat(e *Expr) bool { return s.search(Conjuncts(e), nil) }

// EnumerateConjs invokes cb for each model of the conjunction of conjs,
// without building it, in the order chronological enumeration of the
// candidate domains gives, until cb returns false or the space is
// exhausted. The Model is the search's assignment itself, so a model costs
// nothing to hand over: it is valid until cb returns, and what cb wants to
// keep it reads out (Int, Bool) before then. The list may repeat a
// conjunct: a copy is decided at the same level as its first occurrence
// and prunes what that one pruned, and variable order and candidate
// domains come from first occurrences, so the models and their order are
// those of the conjunction. conjs is only read, and only during the call.
func (s *Solver) EnumerateConjs(conjs []*Expr, cb func(Model) bool) { s.search(conjs, cb) }

// search is the one backtracking search behind every entry point. It
// walks the total assignments satisfying the implicit conjunction conjs —
// callers pass conjunct lists so that cone-of-influence queries need not
// intern a transient And node — and reports whether it reached one. At
// each it calls leaf, when non-nil, and goes on while leaf returns true;
// a nil leaf stops at the first. The leaf's Model is the assignment being
// searched, bound at every variable of conjs.
//
// The search evaluates each conjunct exactly once per candidate — at the
// depth where its last free variable gets assigned — so pruning costs are
// proportional to the conjunct, not the whole formula.
//
// Backtracking is conflict-directed. A level that runs out of values
// hands its parent the set of earlier levels its failures depended on: the
// variables of each conjunct that pruned a value, and what the subtrees
// below reported. A parent that is not in its child's set could change
// nothing by trying its other values, so it skips them and passes the set
// up — without this, a late contradiction with an early variable is
// rediscovered under every combination of the unrelated variables between
// them. A leaf that asks to go on reports that it depends on every level,
// so only subtrees holding no model are ever skipped: models come in the
// order chronological backtracking visits them, and all of them come.
func (s *Solver) search(conjs []*Expr, leaf func(Model) bool) (found bool) {
	if s.searching {
		panic("sym: Solver used re-entrantly (a search is in progress on it)")
	}
	s.searching = true
	s.steps = 0
	s.exceeded = false
	s.stats.SatCalls++
	searchStart := time.Now()
	defer func() {
		s.searching = false
		s.stats.SearchTime += time.Since(searchStart)
		if s.exceeded {
			s.stats.BudgetHits++
		}
	}()
	for _, c := range conjs {
		if c.IsFalse() {
			return false
		}
	}
	doms := s.domains(conjs)

	// completedAt[i] lists conjuncts whose variables are all assigned
	// once doms[i] has a value.
	for len(s.completedAt) < len(doms) {
		s.completedAt = append(s.completedAt, nil)
	}
	completedAt := s.completedAt[:len(doms)]
	for i := range completedAt {
		completedAt[i] = completedAt[i][:0]
	}
	for _, conj := range conjs {
		if conj.IsTrue() {
			continue
		}
		last := -1
		for _, v := range conj.vars {
			if idx := s.varPos[v.VarID] - 1; idx > last {
				last = idx
			}
		}
		if last < 0 {
			// Ground conjunct: constructors fold these, but guard anyway.
			if v, ok := evalBoolIdx(conj, &Model{}); ok && !v {
				return false
			}
			continue
		}
		completedAt[last] = append(completedAt[last], conj)
	}

	// conf holds one conflict set per level, a bitset over levels w words
	// wide, and one more for the leaf: every level.
	n := len(doms)
	w := n/64 + 1
	s.conf = append(s.conf[:0], make([]uint64, (n+1)*w)...)
	conf := s.conf
	for i := 0; i < n; i++ {
		conf[n*w+i/64] |= 1 << (i % 64)
	}

	maxSteps := s.MaxSteps
	if maxSteps == 0 {
		maxSteps = 5_000_000
	}
	a := &s.asn
	// rec reports whether the search goes on; when it does, level i's
	// conflict set is what the subtree's failure depended on.
	var rec func(i int) bool
	rec = func(i int) bool {
		if i == n {
			found = true
			return leaf != nil && leaf(*a)
		}
		d := doms[i]
		id := d.v.VarID
		mine, below := conf[i*w:(i+1)*w], conf[(i+1)*w:(i+2)*w]
		clear(mine)
	next:
		for _, val := range d.vals {
			s.steps++
			if s.steps > maxSteps ||
				(s.Stop != nil && s.steps&stopCheckMask == 0 && s.Stop()) {
				s.exceeded = true
				a.set[id] = false // keep the reusable arrays clean
				return false
			}
			a.vals[id] = val
			a.set[id] = true
			for _, conj := range completedAt[i] {
				v, ok := evalBoolIdx(conj, a)
				if !ok {
					panic("sym: completed conjunct left undetermined: " + conj.String())
				}
				if !v {
					for _, x := range conj.vars {
						p := s.varPos[x.VarID] - 1
						mine[p/64] |= 1 << (p % 64)
					}
					continue next // prune this value
				}
			}
			if !rec(i + 1) {
				a.set[id] = false
				return false
			}
			if below[i/64]&(1<<(i%64)) == 0 {
				copy(mine, below) // no other value of this level can help
				break
			}
			for k, b := range below {
				mine[k] |= b
			}
		}
		mine[i/64] &^= 1 << (i % 64)
		a.set[id] = false
		return true
	}
	rec(0)
	return found
}

// Conjuncts splits a top-level conjunction (a non-And expression is its own
// single conjunct; True yields none).
func Conjuncts(e *Expr) []*Expr {
	if e.IsTrue() {
		return nil
	}
	if e.Op == OpAnd {
		return e.Args
	}
	return []*Expr{e}
}

// SatAssuming decides satisfiability of base ∧ extra given that base is
// already known satisfiable. It restricts the search to extra's cone of
// influence: the conjuncts of base transitively sharing variables with
// extra. Conjuncts outside the cone share no variables with it, so a model
// of the cone extends to a full model by reusing any model of base —
// soundness and completeness both follow from that disjointness. A false
// answer is a proof only when Budget reports false afterwards.
func (s *Solver) SatAssuming(base, extra *Expr) bool {
	return s.SatAssumingConjs(Conjuncts(base), extra)
}

// SatAssumingConjs is SatAssuming with the base formula given as its
// conjunct list. Callers that maintain path conditions as incremental
// conjunct lists (the symbolic executor) query directly, avoiding the
// construction of a conjunction node per feasibility check.
//
// The Solver remembers each answer under the exact input of the search
// that gave it — the interning ids of extra's conjuncts and of the cone's,
// in search order; ids, unlike the addresses of nodes a scope let go, are
// never reused — and answers a repeated question without searching:
// the paths of one exploration share most of their path conditions, so
// three in four of a pair's questions are repeats. Only a search that ran
// to the end is remembered: one the budget or the Stop hook cut short says
// nothing about the question, and asking again — with a larger MaxSteps,
// or once Stop lets go — searches again.
func (s *Solver) SatAssumingConjs(conjs []*Expr, extra *Expr) bool {
	if extra.IsTrue() || extra.IsFalse() {
		s.exceeded = false // no search ran, so no truncation
		return extra.IsTrue()
	}
	// The cone, marked on scratch indexed by variable id: a conjunct joins
	// when it shares a variable with extra or with a conjunct that joined.
	mark := func(vars []*Expr) {
		for _, v := range vars {
			if v.VarID >= len(s.inCone) {
				s.growVars()
			}
			if !s.inCone[v.VarID] {
				s.inCone[v.VarID] = true
				s.coneVars = append(s.coneVars, v.VarID)
			}
		}
	}
	s.used = append(s.used[:0], make([]bool, len(conjs))...)
	s.coneVars = s.coneVars[:0]
	mark(extra.vars)
	for changed := true; changed; {
		changed = false
		for i, c := range conjs {
			if s.used[i] {
				continue
			}
			for _, v := range c.vars {
				if v.VarID < len(s.inCone) && s.inCone[v.VarID] {
					s.used[i], changed = true, true
					mark(c.vars)
					break
				}
			}
		}
	}
	for _, id := range s.coneVars {
		s.inCone[id] = false
	}
	// extra goes first (its own top-level conjuncts spliced so each
	// prunes independently), then the cone's base conjuncts in
	// chronological order. Leading with extra assigns its variables at
	// the top of the search tree, so when base ∧ extra is unsatisfiable
	// the contradiction surfaces after a handful of assignments; what a
	// static order cannot bring to the top, the search's backjumping
	// handles. The answer is order-independent: the search is complete
	// over the same domains.
	ordered := append(s.ordered[:0], Conjuncts(extra)...)
	for i, c := range conjs {
		if s.used[i] {
			ordered = append(ordered, c)
		}
	}
	s.ordered = ordered
	s.key = s.key[:0]
	h := uint64(fnvOffset)
	for _, c := range ordered {
		s.key = append(s.key, c.id)
		h = hashMix(h, c.id)
	}
	if sat, ok := s.recall(h); ok {
		s.stats.MemoHits++
		s.exceeded = false // the remembered search ran to the end
		return sat
	}
	sat := s.search(ordered, nil)
	if !s.exceeded {
		s.remember(h, sat)
	}
	return sat
}
