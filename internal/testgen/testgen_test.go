package testgen

import (
	"context"
	"testing"

	"repro/internal/analyzer"
	"repro/internal/kernel"
	"repro/internal/kernel/kerneltest"
	"repro/internal/kernel/unix"
	"repro/internal/model"
	"repro/internal/spec"
	"repro/internal/sym"
)

func analyze(t *testing.T, a, b string) analyzer.PairResult {
	t.Helper()
	return analyzeUnder(t, a, b, spec.Config{})
}

func analyzeUnder(t *testing.T, a, b string, cfg spec.Config) analyzer.PairResult {
	t.Helper()
	opA, errA := spec.OpByName(model.Spec, a)
	opB, errB := spec.OpByName(model.Spec, b)
	if errA != nil || errB != nil {
		t.Fatal(errA, errB)
	}
	pr, err := analyzer.AnalyzePairCtx(context.Background(), model.Spec, opA, opB, analyzer.Options{Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	return pr
}

func gen(t *testing.T, a, b string, opt Options) []kernel.TestCase {
	t.Helper()
	tests, _ := GenerateChecked(model.Spec, analyze(t, a, b), opt)
	return tests
}

func TestGenerateProducesTests(t *testing.T) {
	tests := gen(t, "stat", "stat", Options{})
	if len(tests) == 0 {
		t.Fatal("no tests generated for stat x stat")
	}
	ids := map[string]bool{}
	for _, tc := range tests {
		if ids[tc.ID] {
			t.Errorf("duplicate test id %s", tc.ID)
		}
		ids[tc.ID] = true
		if tc.Calls[0].Op != "stat" || tc.Calls[1].Op != "stat" {
			t.Errorf("bad ops %v", tc.Calls)
		}
		if _, ok := tc.Calls[0].Args["fname"]; !ok {
			t.Errorf("stat call missing fname arg: %v", tc.Calls[0])
		}
	}
}

// Conflict coverage: for one model path, enumerated tests must differ in
// their equality pattern (e.g. same name vs different names).
func TestIsomorphismClassesDiffer(t *testing.T) {
	tests := gen(t, "stat", "stat", Options{MaxTestsPerPath: 8})
	sawSame, sawDiff := false, false
	for _, tc := range tests {
		if tc.Calls[0].Args["fname"] == tc.Calls[1].Args["fname"] {
			sawSame = true
		} else {
			sawDiff = true
		}
	}
	if !sawSame || !sawDiff {
		t.Errorf("conflict coverage incomplete: same=%v diff=%v", sawSame, sawDiff)
	}
}

// Setups must be internally consistent: files reference declared inodes,
// FDs reference pipes or inodes that exist.
func TestSetupsConsistent(t *testing.T) {
	for _, pair := range [][2]string{{"rename", "rename"}, {"link", "unlink"}, {"read", "write"}} {
		for _, tc := range gen(t, pair[0], pair[1], Options{}) {
			inodes := map[int64]bool{}
			for _, si := range tc.Setup.Inodes {
				inodes[si.Inum] = true
			}
			for _, f := range tc.Setup.Files {
				if !inodes[f.Inum] {
					t.Errorf("%s: file %s references undeclared inode %d", tc.ID, f.Name, f.Inum)
				}
			}
			pipes := map[int64]bool{}
			for _, p := range tc.Setup.Pipes {
				pipes[p.ID] = true
			}
			for _, fd := range tc.Setup.FDs {
				if fd.Pipe && !pipes[fd.PipeID] {
					t.Errorf("%s: fd references undeclared pipe %d", tc.ID, fd.PipeID)
				}
				if !fd.Pipe && !inodes[fd.Inum] {
					t.Errorf("%s: fd references undeclared inode %d", tc.ID, fd.Inum)
				}
			}
		}
	}
}

// Every generated setup must apply cleanly to both kernels.
func TestSetupsApply(t *testing.T) {
	for _, pair := range [][2]string{{"stat", "unlink"}, {"close", "pipe"}, {"mprotect", "munmap"}} {
		for _, tc := range gen(t, pair[0], pair[1], Options{}) {
			for _, fresh := range []func() kernel.Kernel{
				func() kernel.Kernel { return unix.New(unix.Linux) },
				func() kernel.Kernel { return unix.New(unix.SV6) },
			} {
				k := fresh()
				k.Apply(tc.Setup)
			}
		}
	}
}

// The paper's core claim, locally: generated tests are commutative, so both
// calls must yield identical results in both execution orders on sv6
// (whose allocators are order-independent).
func TestGeneratedTestsCommuteOnSv6(t *testing.T) {
	pairs := [][2]string{{"stat", "stat"}, {"link", "link"}, {"unlink", "unlink"}, {"close", "close"}}
	for _, pair := range pairs {
		for _, tc := range gen(t, pair[0], pair[1], Options{}) {
			res, swapped := kerneltest.Check(func() kernel.Kernel { return unix.New(unix.SV6) }, tc)
			if res.Res != swapped {
				t.Errorf("%s: results differ across orders: %v vs %v (calls %v, setup %+v)",
					tc.ID, res.Res, swapped, tc.Calls, tc.Setup)
			}
		}
	}
}

// sv6 must be conflict-free on (nearly all) generated tests for scalable
// pairs; the Linux-like kernel must conflict on create-heavy tests.
func TestKernelsOnGeneratedCreateTests(t *testing.T) {
	tests := gen(t, "open", "open", Options{})
	if len(tests) == 0 {
		t.Fatal("no open x open tests")
	}
	linuxConf, sv6Conf := 0, 0
	for _, tc := range tests {
		rl, _ := kerneltest.Check(func() kernel.Kernel { return unix.New(unix.Linux) }, tc)
		rs, _ := kerneltest.Check(func() kernel.Kernel { return unix.New(unix.SV6) }, tc)
		if !rl.ConflictFree {
			linuxConf++
		}
		if !rs.ConflictFree {
			sv6Conf++
		}
	}
	if linuxConf == 0 {
		t.Error("linux kernel should conflict on some open x open tests")
	}
	if sv6Conf >= linuxConf {
		t.Errorf("sv6 (%d conflicts) should beat linux (%d) on open x open", sv6Conf, linuxConf)
	}
}

// Nondeterministic allocation variables must not leak into setups.
func TestNondetVarsExcludedFromSetup(t *testing.T) {
	for _, tc := range gen(t, "open", "open", Options{}) {
		for _, si := range tc.Setup.Inodes {
			if si.Inum < 1 {
				t.Errorf("%s: setup contains allocated (negative) inode %d", tc.ID, si.Inum)
			}
		}
	}
}

// TestClassFormula: a model's signature is its own, a model with a
// different equality pattern gets another, and both agree with the class
// formula the signature replaced.
func TestClassFormula(t *testing.T) {
	fn := model.FilenameSort
	x, y := tscope.Var("x", fn), tscope.Var("y", fn)
	b := tscope.Var("b", sym.BoolSort)
	vars := []*sym.Expr{x, y, b}
	withModel(vars, []int64{1, 1, 1}, func(m sym.Model) {
		f, sig := classFormula(m, vars), signatureOf(m, vars)
		if !m.Bool(f, false) {
			t.Error("class formula must hold in its defining model")
		}
		withModel(vars, []int64{2, 2, 1}, func(renamed sym.Model) {
			if !renamed.Bool(f, false) || signatureOf(renamed, vars) != sig {
				t.Error("renaming values must stay in the class")
			}
		})
		withModel(vars, []int64{1, 2, 1}, func(m2 sym.Model) {
			if m2.Bool(f, true) {
				t.Error("different equality pattern must violate the class formula")
			}
			if signatureOf(m2, vars) == sig {
				t.Error("different equality pattern must give a different class signature")
			}
		})
	})
}

func TestMaxTestsPerPathHonored(t *testing.T) {
	few := gen(t, "stat", "stat", Options{MaxTestsPerPath: 1})
	more := gen(t, "stat", "stat", Options{MaxTestsPerPath: 6})
	if len(few) >= len(more) {
		t.Errorf("MaxTestsPerPath not effective: %d vs %d", len(few), len(more))
	}
}

func TestAnyFDFlagPropagation(t *testing.T) {
	for _, tc := range gen(t, "open", "close", Options{}) {
		for _, c := range tc.Calls {
			if c.Op == "open" && c.Args["anyfd"] != 1 {
				t.Errorf("%s: open call missing anyfd under nondeterministic model", tc.ID)
			}
		}
	}
	// The flag follows the configuration the pair was analysed under.
	lowest, _ := GenerateChecked(model.Spec, analyzeUnder(t, "open", "close", spec.Config{LowestFD: true}), Options{})
	if len(lowest) == 0 {
		t.Fatal("no tests generated for open x close under the lowest-FD rule")
	}
	for _, tc := range lowest {
		for _, c := range tc.Calls {
			if c.Args["anyfd"] == 1 {
				t.Errorf("%s: anyfd set under LowestFD model", tc.ID)
			}
		}
	}
}
