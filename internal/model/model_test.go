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
		s := newState(c)
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

// TestErrorPathsExist pins each op's errno surface: every errno the op can
// return, run standalone, with the number of paths that return it — under
// the O_ANYFD default, and under the lowest-FD rule where that differs
// (only there can a descriptor table be full). No path may return a
// negative code outside the op's list, and every op has a success path.
func TestErrorPathsExist(t *testing.T) {
	anyFD, lowest := spec.Config{}, spec.Config{LowestFD: true}
	surface := []struct {
		op    string
		cfg   spec.Config
		errno map[int64]int
	}{
		{"open", anyFD, map[int64]int{kernel.EEXIST: 1, kernel.ENOENT: 1}},
		{"open", lowest, map[int64]int{kernel.EEXIST: 1, kernel.ENOENT: 1, kernel.EMFILE: 3}},
		{"link", anyFD, map[int64]int{kernel.ENOENT: 1, kernel.EEXIST: 2}},
		{"unlink", anyFD, map[int64]int{kernel.ENOENT: 1}},
		{"rename", anyFD, map[int64]int{kernel.ENOENT: 1}},
		{"stat", anyFD, map[int64]int{kernel.ENOENT: 1}},
		{"fstat", anyFD, map[int64]int{kernel.EBADF: 1}},
		{"lseek", anyFD, map[int64]int{kernel.EBADF: 1, kernel.ESPIPE: 1, kernel.EINVAL: 3}},
		{"close", anyFD, map[int64]int{kernel.EBADF: 1}},
		{"pipe", anyFD, map[int64]int{}},
		{"pipe", lowest, map[int64]int{kernel.EMFILE: 4}},
		// read's second EBADF is a pipe's write end, write's its read end.
		{"read", anyFD, map[int64]int{kernel.EBADF: 2, kernel.EAGAIN: 1}},
		{"write", anyFD, map[int64]int{kernel.EBADF: 2}},
		{"pread", anyFD, map[int64]int{kernel.EBADF: 1, kernel.ESPIPE: 1}},
		{"pwrite", anyFD, map[int64]int{kernel.EBADF: 1, kernel.ESPIPE: 1}},
		{"mmap", anyFD, map[int64]int{kernel.EBADF: 2, kernel.ENODEV: 2}},
		{"munmap", anyFD, map[int64]int{}},
		{"mprotect", anyFD, map[int64]int{kernel.ENOMEM: 1}},
		{"memread", anyFD, map[int64]int{kernel.ESIGSEGV: 1, kernel.ESIGBUS: 1}},
		{"memwrite", anyFD, map[int64]int{kernel.ESIGSEGV: 2, kernel.ESIGBUS: 1}},
	}
	var s sym.Solver
	covered := map[string]bool{}
	for _, w := range surface {
		covered[w.op] = true
		got := map[int64]int{}
		hasSuccess := false
		for _, p := range runOp(t, w.op, w.cfg) {
			code := p.Result.([]*sym.Expr)[0]
			outside := []*sym.Expr{p.PC, sym.Lt(code, sym.Int(0))}
			for errno := range w.errno {
				if s.Sat(sym.And(p.PC, sym.Eq(code, sym.Int(-errno)))) {
					got[errno]++
				}
				outside = append(outside, sym.Ne(code, sym.Int(-errno)))
			}
			if s.Sat(sym.And(outside...)) {
				t.Errorf("%s (%+v): a path returns a negative code outside %v: %v", w.op, w.cfg, w.errno, code)
			}
			if s.Sat(sym.And(p.PC, sym.Ge(code, sym.Int(0)))) {
				hasSuccess = true
			}
		}
		for errno, n := range w.errno {
			if got[errno] != n {
				t.Errorf("%s (%+v): %d paths return errno %d, want %d", w.op, w.cfg, got[errno], errno, n)
			}
		}
		if !hasSuccess {
			t.Errorf("%s (%+v): no success path", w.op, w.cfg)
		}
	}
	for _, op := range Spec.Ops() {
		if !covered[op.Name] {
			t.Errorf("%s has no errno surface", op.Name)
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
	}, symx.Options{Solver: &s})
	p := paths[0]
	off := s.Scope().Var("pread.0.off", sym.IntSort)
	if s.Sat(sym.And(p.PC, sym.Lt(off, sym.Int(0)))) {
		t.Error("offset bound (>= 0) not enforced")
	}
	if s.Sat(sym.And(p.PC, sym.Gt(off, sym.Int(maxLen)))) {
		t.Error("offset bound (<= maxLen) not enforced")
	}
}

func TestRetEq(t *testing.T) {
	a := []*sym.Expr{sym.Int(0), sym.Int(1), sym.Int(2), sym.Int(3), dataZero}
	b := []*sym.Expr{sym.Int(0), sym.Int(1), sym.Int(2), sym.Int(3), dataZero}
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
		st := newState(c)
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
		if s.Sat(sym.And(p.PC, sym.Gt(inum, sym.Int(maxInum)))) {
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
		st := newState(c)
		a := st.allocInum(c, "0")
		b := st.allocInum(c, "1")
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
		s1 := newState(c)
		s2 := newState(c)
		name := c.Var("n", FilenameSort, symx.KindArg)
		s1.Fname.Set(c, symx.K(name), symx.NewStruct("inum", sym.Int(1)))
		s2.Fname.Set(c, symx.K(name), symx.NewStruct("inum", sym.Int(2)))
		return sym.And(spec.Equivalent(nil, c, s1, s2)...)
	}, symx.Options{})
	for _, p := range paths {
		if s.Sat(sym.And(p.PC, p.Result.(*sym.Expr))) {
			t.Error("states with different bindings reported equivalent")
		}
	}

	paths = explore(func(c *symx.Context) any {
		s1 := newState(c)
		s2 := newState(c)
		return sym.And(spec.Equivalent(nil, c, s1, s2)...)
	}, symx.Options{})
	for _, p := range paths {
		if s.Sat(sym.Not(sym.Implies(p.PC, p.Result.(*sym.Expr)))) {
			t.Error("untouched states must be equivalent")
		}
	}
}
