package sym

import (
	"fmt"
	"testing"
)

// The benchmarks below cover the layers the hash-consed engine
// accelerates: constructing path-condition-shaped formulas (interning),
// evaluating shared DAGs under a model (Model.Bool), and the
// solver's cone-of-influence queries, searched and remembered. Run them
// with
//
//	go test -bench . -benchtime 1x ./internal/sym
//
// for a smoke pass, or higher -benchtime for stable numbers.

// pcLike builds a path-condition-shaped conjunction: n key-equality
// guards and bound constraints over a rolling window of variables, the
// pattern symbolic execution accumulates.
func pcLike(n int) *Expr {
	fn := Uninterpreted("BenchName")
	pc := True
	for i := 0; i < n; i++ {
		k := tscope.Var(fmt.Sprintf("bk%d", i), fn)
		o := tscope.Var(fmt.Sprintf("bk%d", (i+3)%n), fn)
		x := tscope.Var(fmt.Sprintf("bx%d", i), IntSort)
		pc = And(pc,
			Ne(k, o),
			Ge(x, Int(0)), Le(x, Int(3)),
			or(Eq(k, Const(fn, int64(i%4))), Lt(x, Int(2))))
	}
	return pc
}

// BenchmarkConstructPathCondition measures formula construction: with
// hash-consing every node build is a table probe, and rebuilt formulas
// resolve to existing nodes instead of fresh allocations.
func BenchmarkConstructPathCondition(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if pcLike(32).IsFalse() {
			b.Fatal("unexpected fold")
		}
	}
}

// BenchmarkModelEvalSharedDAG measures evaluation under a total model of a
// deep Ite-chain DAG with heavy subterm sharing — the shape
// DictsEquivalent produces, and what each spec's SetupMiner evaluates per
// test. Every guard is decided, so the walk follows one branch per level.
func BenchmarkModelEvalSharedDAG(b *testing.B) {
	fn := Uninterpreted("BenchName")
	k := tscope.Var("dagk", fn)
	chain := tscope.Var("dagv", IntSort)
	m := modelOf([]*Expr{k, chain}, 1, 0)
	for i := 0; i < 64; i++ {
		guard := Eq(k, Const(fn, int64(i%8)))
		chain = Ite(guard, Add(chain, Int(1)), chain)
	}
	cond := And(Le(chain, Int(64)), Ge(chain, Int(0)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !m.Bool(cond, false) {
			b.Fatal("expected decided-true")
		}
	}
}

// BenchmarkSatAssumingFeasible measures the solver path symbolic
// execution hits on every branch the path condition does not decide
// syntactically: a cone-of-influence query that finds a model. The Solver
// is reused, as a pair's is, but forgets its answers between iterations so
// that every one searches.
func BenchmarkSatAssumingFeasible(b *testing.B) {
	pc := pcLike(24)
	fn := Uninterpreted("BenchName")
	extra := Eq(tscope.Var("bk0", fn), tscope.Var("bk5", fn))
	var s Solver
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.forgetAnswers()
		if !s.SatAssuming(pc, extra) {
			b.Fatal("expected satisfiable")
		}
	}
}

// unsatQuery is a path condition and a question that contradicts it.
func unsatQuery() (pc, extra *Expr) {
	x := tscope.Var("bx1", IntSort)
	return pcLike(24), And(Lt(x, Int(0)), Gt(x, Int(0)))
}

// BenchmarkSatAssumingUnsat measures the expensive direction — an
// unsatisfiability proof — searched anew every iteration.
func BenchmarkSatAssumingUnsat(b *testing.B) {
	pc, extra := unsatQuery()
	var s Solver
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.forgetAnswers()
		if s.SatAssuming(pc, extra) {
			b.Fatal("expected unsatisfiable")
		}
	}
}

// BenchmarkSatAssumingRepeated measures the same question asked again of
// a Solver that remembers the answer: the cone and its key, no search.
func BenchmarkSatAssumingRepeated(b *testing.B) {
	pc, extra := unsatQuery()
	var s Solver
	s.SatAssuming(pc, extra)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s.SatAssuming(pc, extra) {
			b.Fatal("expected unsatisfiable")
		}
	}
	if st := s.Stats(); st.SatCalls != 1 {
		b.Fatalf("%d searches, want the first one only", st.SatCalls)
	}
}
