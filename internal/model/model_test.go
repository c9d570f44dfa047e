package model

import (
	"context"
	"testing"

	"repro/internal/kernel"
	"repro/internal/spec"
	"repro/internal/sym"
	"repro/internal/symx"
)

func TestOpsInventory(t *testing.T) {
	ops := Spec.Ops()
	if len(ops) != 18 {
		t.Fatalf("want the paper's 18 calls, got %d", len(ops))
	}
	want := []string{"open", "link", "unlink", "rename", "stat", "fstat", "lseek",
		"close", "pipe", "read", "write", "pread", "pwrite", "mmap", "munmap",
		"mprotect", "memread", "memwrite"}
	seen := map[string]bool{}
	for i, op := range ops {
		if op.Name != want[i] {
			t.Errorf("op %d = %s, want %s (Figure 6 order)", i, op.Name, want[i])
		}
		if seen[op.Name] {
			t.Errorf("duplicate op %s", op.Name)
		}
		seen[op.Name] = true
		if op.Exec == nil {
			t.Errorf("%s has no Exec", op.Name)
		}
	}
	if _, err := spec.OpByName(Spec, "rename"); err != nil {
		t.Error(err)
	}
	if _, err := spec.OpByName(Spec, "nope"); err == nil {
		t.Error("OpByName resolved an unknown op")
	}
}

// explore runs fn to completion under a context that is never cancelled.
func explore(fn func(*symx.Context) any, opt symx.Options) []symx.Path {
	paths, _, _ := symx.RunCtx(context.Background(), fn, opt)
	return paths
}

// runOp executes one op standalone and returns its paths with results.
func runOp(t *testing.T, name string, cfg spec.Config) []symx.Path {
	t.Helper()
	op, err := spec.OpByName(Spec, name)
	if err != nil {
		t.Fatal(err)
	}
	return explore(func(c *symx.Context) any {
		args := spec.MakeArgs(c, op, "0")
		s := NewState(c)
		x := &spec.Exec{C: c, S: s, Cfg: cfg}
		return op.Exec(x, "0", args)
	}, symx.Options{})
}

// Every op must return fixed-width vectors on every path.
func TestUniformReturnWidth(t *testing.T) {
	for _, op := range Spec.Ops() {
		for _, p := range runOp(t, op.Name, spec.Config{}) {
			ret := p.Result.([]*sym.Expr)
			if len(ret) != spec.RetWidth {
				t.Errorf("%s: return width %d on some path", op.Name, len(ret))
			}
		}
	}
}

// Each op must have both error and success paths where the spec has them.
func TestErrorPathsExist(t *testing.T) {
	wantErr := map[string]int64{
		"stat":     kernel.ENOENT,
		"link":     kernel.ENOENT,
		"unlink":   kernel.ENOENT,
		"rename":   kernel.ENOENT,
		"fstat":    kernel.EBADF,
		"close":    kernel.EBADF,
		"read":     kernel.EBADF,
		"lseek":    kernel.ESPIPE,
		"pread":    kernel.ESPIPE,
		"pwrite":   kernel.ESPIPE,
		"mprotect": kernel.ENOMEM,
		"memread":  kernel.ESIGSEGV,
		"memwrite": kernel.ESIGSEGV,
	}
	var s sym.Solver
	for name, errno := range wantErr {
		found := false
		hasSuccess := false
		for _, p := range runOp(t, name, spec.Config{}) {
			ret := p.Result.([]*sym.Expr)
			cond := sym.And(p.PC, sym.Eq(ret[0], sym.Int(-errno)))
			if s.Sat(cond) {
				found = true
			}
			if s.Sat(sym.And(p.PC, sym.Ge(ret[0], sym.Int(0)))) {
				hasSuccess = true
			}
		}
		if !found {
			t.Errorf("%s: no path returns errno %d", name, errno)
		}
		if !hasSuccess {
			t.Errorf("%s: no success path", name)
		}
	}
}

// The lowest-FD configuration produces concrete descriptor constants; the
// nondeterministic default produces an allocation variable.
func TestFDAllocationModes(t *testing.T) {
	sawConst, sawVar := false, false
	for _, p := range runOp(t, "open", spec.Config{LowestFD: true}) {
		ret := p.Result.([]*sym.Expr)
		if ret[0].IsConst() && ret[0].Int >= 0 {
			sawConst = true
		}
	}
	for _, p := range runOp(t, "open", spec.Config{}) {
		ret := p.Result.([]*sym.Expr)
		if ret[0].Op == sym.OpVar && p.VarKinds[ret[0].Name] == symx.KindNondet {
			sawVar = true
		}
	}
	if !sawConst {
		t.Error("LowestFD mode never returned a constant descriptor")
	}
	if !sawVar {
		t.Error("default mode never returned a nondeterministic descriptor")
	}
}

func TestMakeArgsBounds(t *testing.T) {
	var s sym.Solver
	pread, err := spec.OpByName(Spec, "pread")
	if err != nil {
		t.Fatal(err)
	}
	paths := explore(func(c *symx.Context) any {
		return spec.MakeArgs(c, pread, "0")
	}, symx.Options{})
	p := paths[0]
	off := sym.Var("pread.0.off", sym.IntSort)
	if s.Sat(sym.And(p.PC, sym.Lt(off, sym.Int(0)))) {
		t.Error("offset bound (>= 0) not enforced")
	}
	if s.Sat(sym.And(p.PC, sym.Gt(off, sym.Int(MaxLen)))) {
		t.Error("offset bound (<= MaxLen) not enforced")
	}
}

func TestRetEq(t *testing.T) {
	a := []*sym.Expr{sym.Int(0), sym.Int(1), sym.Int(2), sym.Int(3), DataZero}
	b := []*sym.Expr{sym.Int(0), sym.Int(1), sym.Int(2), sym.Int(3), DataZero}
	if !spec.RetEq(a, b).IsTrue() {
		t.Error("identical returns must be equal")
	}
	b[1] = sym.Int(9)
	if !spec.RetEq(a, b).IsFalse() {
		t.Error("different returns must be unequal")
	}
}

// State invariants: a probed file's inode number is within the initial
// range, never overlapping allocated (negative) numbers.
func TestStateInvariants(t *testing.T) {
	var s sym.Solver
	paths := explore(func(c *symx.Context) any {
		st := NewState(c)
		name := c.Var("n", FilenameSort, symx.KindArg)
		if st.Fname.Contains(c, symx.K(name)) {
			return st.Fname.Get(c, symx.K(name)).Get("inum")
		}
		return nil
	}, symx.Options{})
	checked := false
	for _, p := range paths {
		inum, ok := p.Result.(*sym.Expr)
		if !ok || inum == nil {
			continue
		}
		checked = true
		if s.Sat(sym.And(p.PC, sym.Lt(inum, sym.Int(1)))) {
			t.Error("initial inode numbers must be >= 1")
		}
		if s.Sat(sym.And(p.PC, sym.Gt(inum, sym.Int(MaxInum)))) {
			t.Error("initial inode numbers must be bounded")
		}
	}
	if !checked {
		t.Fatal("no present path explored")
	}
}

// Allocated identifiers are negative and pairwise distinct.
func TestAllocDistinctness(t *testing.T) {
	var s sym.Solver
	paths := explore(func(c *symx.Context) any {
		st := NewState(c)
		a := st.AllocInum(c, "0")
		b := st.AllocInum(c, "1")
		return [2]*sym.Expr{a, b}
	}, symx.Options{})
	for _, p := range paths {
		ab := p.Result.([2]*sym.Expr)
		if s.Sat(sym.And(p.PC, sym.Eq(ab[0], ab[1]))) {
			t.Error("allocated inums can collide")
		}
		if s.Sat(sym.And(p.PC, sym.Ge(ab[0], sym.Int(0)))) {
			t.Error("allocated inums must be negative")
		}
	}
}

// Equivalent must accept identical untouched states and reject states that
// differ at a written key.
func TestEquivalentDetectsWrites(t *testing.T) {
	var s sym.Solver
	paths := explore(func(c *symx.Context) any {
		s1 := NewState(c)
		s2 := NewState(c)
		name := c.Var("n", FilenameSort, symx.KindArg)
		s1.Fname.Set(c, symx.K(name), symx.NewStruct("inum", sym.Int(1)))
		s2.Fname.Set(c, symx.K(name), symx.NewStruct("inum", sym.Int(2)))
		return spec.Equivalent(c, s1, s2)
	}, symx.Options{})
	for _, p := range paths {
		if s.Sat(sym.And(p.PC, p.Result.(*sym.Expr))) {
			t.Error("states with different bindings reported equivalent")
		}
	}

	paths = explore(func(c *symx.Context) any {
		s1 := NewState(c)
		s2 := NewState(c)
		return spec.Equivalent(c, s1, s2)
	}, symx.Options{})
	for _, p := range paths {
		if s.Sat(sym.Not(sym.Implies(p.PC, p.Result.(*sym.Expr)))) {
			t.Error("untouched states must be equivalent")
		}
	}
}
