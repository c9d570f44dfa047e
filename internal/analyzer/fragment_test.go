package analyzer

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/kvspec"
	"repro/internal/model"
	"repro/internal/queuespec"
	"repro/internal/spec"
	"repro/internal/sym"
	"repro/internal/vmspec"
)

// fragmentProductSpec is the one spec allowed a product: kvspec's scan
// fingerprint, Σ (val+1)·weight with weight a constant.
const fragmentProductSpec = "kv"

// TestSpecsStayInTheIntegerFragment pins the integer fragment the sym
// package doc states: every integer atom of every PC and SIM conjunct of
// every pair of the four specs compares two terms built from variables,
// constants, +, −, if-then-else and a product by a constant — the last in
// kv's scan alone. An atom outside it means the solver meets arithmetic
// its search was never checked against.
func TestSpecsStayInTheIntegerFragment(t *testing.T) {
	for _, sp := range []spec.Spec{model.Spec, vmspec.Spec, kvspec.Spec, queuespec.Spec} {
		atoms, products := 0, 0
		var formula func(e *sym.Expr) error
		var term func(e *sym.Expr) error
		formula = func(e *sym.Expr) error {
			switch e.Op {
			case sym.OpConst, sym.OpVar:
				return nil
			case sym.OpNot, sym.OpAnd, sym.OpOr:
				for _, a := range e.Args {
					if err := formula(a); err != nil {
						return err
					}
				}
				return nil
			case sym.OpEq, sym.OpLt, sym.OpLe:
				if e.Args[0].Sort.Kind != sym.KindInt {
					return nil // equality of booleans or of an uninterpreted sort
				}
				atoms++
				for _, a := range e.Args {
					if err := term(a); err != nil {
						return fmt.Errorf("%w\nin atom %v", err, e)
					}
				}
				return nil
			}
			return fmt.Errorf("%v is not a formula", e)
		}
		term = func(e *sym.Expr) error {
			switch e.Op {
			case sym.OpConst, sym.OpVar:
				return nil
			case sym.OpAdd, sym.OpSub:
				if err := term(e.Args[0]); err != nil {
					return err
				}
				return term(e.Args[1])
			case sym.OpIte:
				if err := formula(e.Args[0]); err != nil {
					return err
				}
				if err := term(e.Args[1]); err != nil {
					return err
				}
				return term(e.Args[2])
			case sym.OpMul:
				// sym.Mul puts a constant factor second.
				if sp.Name() != fragmentProductSpec || !e.Args[1].IsConst() {
					return fmt.Errorf("product %v: the fragment allows %s's product by a constant alone", e, fragmentProductSpec)
				}
				products++
				return term(e.Args[0])
			}
			return fmt.Errorf("%v is not an integer term", e)
		}
		for _, pair := range pairsOf(sp) {
			r, err := AnalyzePairCtx(context.Background(), sp, pair[0], pair[1], Options{})
			if err != nil {
				t.Fatal(err)
			}
			for i, p := range r.Paths {
				for _, c := range append(sym.Conjuncts(p.PC), sym.Conjuncts(p.Eq)...) {
					if err := formula(c); err != nil {
						t.Fatalf("%s %s/%s path %d: %v", sp.Name(), r.OpA, r.OpB, i, err)
					}
				}
			}
		}
		if atoms == 0 {
			t.Errorf("%s: no integer atom met", sp.Name())
		}
		if sp.Name() == fragmentProductSpec && products == 0 {
			t.Errorf("%s builds no product any more: drop the fragment's product and this allowance", sp.Name())
		}
		t.Logf("%s: %d integer atoms, %d products", sp.Name(), atoms, products)
	}
}
