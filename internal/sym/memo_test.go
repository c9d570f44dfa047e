package sym

import (
	"math/rand"
	"testing"
)

// byteSource feeds a fuzz input to math/rand, so the fuzzer's mutations
// steer exprGen's choices directly. An exhausted input reads as zeroes,
// which exprGen's depth bounds turn into small terms.
type byteSource struct{ data []byte }

func (b *byteSource) Seed(int64) {}

func (b *byteSource) Int63() int64 {
	var v uint64
	for i := 0; i < 8 && len(b.data) > 0; i++ {
		v = v<<8 | uint64(b.data[0])
		b.data = b.data[1:]
	}
	return int64(v &^ (1 << 63))
}

// refCone is SatAssumingConjs's search input computed the way it was
// before the cone moved onto solver scratch — names in a map — kept as the
// reference: extra's conjuncts, then the base conjuncts transitively
// sharing a variable with extra, in base order.
func refCone(conjs []*Expr, extra *Expr) []*Expr {
	used := make([]bool, len(conjs))
	inCone := map[string]bool{}
	for _, v := range extra.vars {
		inCone[v.Name] = true
	}
	for changed := true; changed; {
		changed = false
		for i, c := range conjs {
			if used[i] {
				continue
			}
			touches := false
			for _, v := range c.vars {
				if inCone[v.Name] {
					touches = true
					break
				}
			}
			if !touches {
				continue
			}
			used[i] = true
			changed = true
			for _, v := range c.vars {
				inCone[v.Name] = true
			}
		}
	}
	ordered := append([]*Expr(nil), Conjuncts(extra)...)
	for i, c := range conjs {
		if used[i] {
			ordered = append(ordered, c)
		}
	}
	return ordered
}

// bruteOver decides conjs by trying every combination of the candidate
// values a search over conjs would draw from, evaluating through refModel
// and partialEval: the oracle of the search itself — its backtracking,
// its conflict sets, its evaluator — whatever the domains are worth.
func bruteOver(conjs []*Expr) bool {
	for _, c := range conjs {
		if c.IsFalse() {
			return false
		}
	}
	doms := (&Solver{}).domains(conjs)
	e := And(conjs...)
	m := refModel{}
	var rec func(i int) bool
	rec = func(i int) bool {
		if i == len(doms) {
			return m.holds(e)
		}
		for _, val := range doms[i].vals {
			m[doms[i].v.Name] = refValueOf(doms[i].v.Sort, val)
			if rec(i + 1) {
				return true
			}
		}
		return false
	}
	return rec(0)
}

func hasIntVar(e *Expr) bool {
	for _, v := range e.vars {
		if v.Sort.Kind == KindInt {
			return true
		}
	}
	return false
}

// FuzzSatAssumingAgainstBruteForce checks the remembered, backjumping
// SatAssumingConjs on exprGen's DAGs against code that shares none of it:
// the answer equals exhaustive enumeration of the search's own input
// (refCone, bruteOver); asking again gives the same answer without a
// search, and it is the answer a fresh solver gives. Where the candidate
// domains are complete — equality over uninterpreted sorts and booleans;
// with integers the domains are a heuristic, and a cone sees fewer
// constants than the whole formula: SatAssuming(x<y ∧ z<10, 3<x) is false,
// Sat of the conjunction true, an open bug ROADMAP records — the answer
// also equals bruteSat's over the fixed universe and Sat(base ∧ extra).
func FuzzSatAssumingAgainstBruteForce(f *testing.F) {
	for seed := int64(1); seed <= 8; seed++ {
		data := make([]byte, 512)
		rand.New(rand.NewSource(seed)).Read(data)
		f.Add(data)
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		g := newGen(rand.New(&byteSource{data}))
		base := And(g.boolTerm(2), g.boolTerm(2), g.boolTerm(2))
		extra := g.boolTerm(2)
		var s Solver
		if !s.Sat(base) {
			return // SatAssuming's precondition
		}
		conjs := Conjuncts(base)
		got := s.SatAssumingConjs(conjs, extra)
		if s.Budget() {
			t.Fatalf("budget exhausted on %v ∧ %v", base, extra)
		}
		searches := s.Stats().SatCalls
		if again := s.SatAssumingConjs(conjs, extra); again != got || s.Budget() {
			t.Fatalf("asked twice: %v then %v (budget %v)\nbase: %v\nextra: %v", got, again, s.Budget(), base, extra)
		}
		searching := !extra.IsTrue() && !extra.IsFalse()
		if st := s.Stats(); st.SatCalls != searches || (st.MemoHits != 1) == searching {
			t.Fatalf("second ask: %d searches, %d memo hits\nbase: %v\nextra: %v", st.SatCalls-searches, st.MemoHits, base, extra)
		}
		if fresh := (&Solver{}).SatAssumingConjs(conjs, extra); fresh != got {
			t.Fatalf("used solver %v, fresh solver %v\nbase: %v\nextra: %v", got, fresh, base, extra)
		}
		if want := bruteOver(refCone(conjs, extra)); got != want {
			t.Fatalf("SatAssumingConjs=%v, enumeration of its cone=%v\nbase: %v\nextra: %v", got, want, base, extra)
		}
		if full := And(base, extra); !hasIntVar(full) {
			if brute, direct := bruteSat(full), (&Solver{}).Sat(full); got != brute || got != direct {
				t.Fatalf("SatAssumingConjs=%v brute=%v Sat(base∧extra)=%v\nbase: %v\nextra: %v", got, brute, direct, base, extra)
			}
		}
	})
}

// TestMemoKeepsTruncationDistinct: an answer the budget cut short is never
// remembered — not as a refutation and not as itself. Asked again it is
// searched again ("no" with Budget() true each time), and once MaxSteps is
// raised the same Solver finds the question satisfiable, as a fresh one does.
func TestMemoKeepsTruncationDistinct(t *testing.T) {
	var vars []*Expr
	for i := 0; i < 6; i++ {
		vars = append(vars, Var("trunc"+string(rune('a'+i)), BoolSort))
	}
	conjs := []*Expr{Or(vars[1], vars[2])}
	extra := And(vars...) // false is tried first: two steps a level

	s := Solver{MaxSteps: 5}
	for ask := 0; ask < 3; ask++ {
		if s.SatAssumingConjs(conjs, extra) || !s.Budget() {
			t.Fatalf("ask %d under MaxSteps 5: want false with Budget() true, Budget() = %v", ask, s.Budget())
		}
		// A definite answer in between must not leak into the next Budget().
		if !s.SatAssumingConjs(conjs, vars[0]) || s.Budget() {
			t.Fatalf("ask %d: the one-variable question should be plainly satisfiable", ask)
		}
	}
	if st := s.Stats(); st.SatCalls != 4 || st.MemoHits != 2 || st.BudgetHits != 3 {
		t.Errorf("stats %+v, want 4 searches (3 truncated), 2 memo hits", st)
	}
	s.MaxSteps = 0
	var fresh Solver
	for _, solver := range []*Solver{&s, &fresh} {
		if !solver.SatAssumingConjs(conjs, extra) || solver.Budget() {
			t.Error("with the default budget the question is satisfiable")
		}
	}
}

// TestMemoSkipsStopInterrupted: a search the Stop hook cut short proves
// nothing about the question, so it is not remembered; the same Solver,
// no longer stopped, searches again.
func TestMemoSkipsStopInterrupted(t *testing.T) {
	hard := pigeonhole(8)
	stopped := true
	s := Solver{Stop: func() bool { return stopped }}
	if s.SatAssumingConjs(nil, hard) || !s.Budget() {
		t.Fatal("interrupted search: want false with Budget() true")
	}
	stopped = false
	if s.SatAssumingConjs(nil, hard) || s.Budget() {
		t.Fatal("uninterrupted search: want a proof of unsatisfiability")
	}
	if s.SatAssumingConjs(nil, hard) || s.Budget() {
		t.Fatal("remembered proof: want false with Budget() false")
	}
	if st := s.Stats(); st.SatCalls != 2 || st.MemoHits != 1 {
		t.Errorf("stats %+v, want 2 searches and 1 memo hit", st)
	}
}

// TestBackjumpingEscapesThrash: the last variable's conjuncts contradict
// every value of the first but one, and six unrelated variables sit in
// between. Chronological backtracking retries the contradiction under
// every combination of the six; the conflict set names only the first
// variable, so the search returns straight to it. Pinned by step count.
func TestBackjumpingEscapesThrash(t *testing.T) {
	x, z := Var("thrash.x", IntSort), Var("thrash.z", IntSort)
	conjs := []*Expr{Le(x, Int(3))}
	for i := 0; i < 6; i++ {
		conjs = append(conjs, Ge(Var("thrash.y"+string(rune('0'+i)), IntSort), Int(0)))
	}
	conjs = append(conjs, Lt(z, x), Ge(z, Int(2))) // only x = 3, z = 2

	var s Solver
	m, ok := s.Solve(And(conjs...))
	if !ok || m.Int(x, 0) != 3 || m.Int(z, 0) != 2 {
		t.Fatalf("Solve = %v, %v; want x = 3, z = 2", byName(m, []*Expr{x, z}), ok)
	}
	chronological := 1
	for _, d := range s.doms {
		chronological *= len(d.vals)
	}
	if len(s.doms) != 8 || s.steps*100 >= chronological {
		t.Errorf("%d steps over %d variables; want under 1%% of ∏|dom| = %d", s.steps, len(s.doms), chronological)
	}
	t.Logf("%d steps, ∏|dom| = %d", s.steps, chronological)

	// More variables than one conflict-set word holds, same escape.
	wide := []*Expr{Le(x, Int(3))}
	for i := 0; i < 70; i++ {
		wide = append(wide, Var("thrash.b"+string(rune('0'+i)), BoolSort))
	}
	wide = append(wide, Lt(z, x), Ge(z, Int(2)))
	if m, ok := s.Solve(And(wide...)); !ok || m.Int(x, 0) != 3 || len(s.doms) != 72 || s.steps > 1000 {
		t.Errorf("72 variables: ok=%v x=%v after %d steps; want x = 3 within 1000", ok, m.Int(x, 0), s.steps)
	}
}
