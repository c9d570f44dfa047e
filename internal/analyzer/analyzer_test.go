package analyzer

import (
	"context"
	"testing"

	"repro/internal/model"
	"repro/internal/spec"
	"repro/internal/sym"
	"repro/internal/symx"
)

func analyze(t *testing.T, a, b string, opt Options) PairResult {
	t.Helper()
	r, err := AnalyzePairCtx(context.Background(), model.Spec, opOf(t, a), opOf(t, b), opt)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// assertCommuteUnder checks that some commutative path's condition admits
// the extra constraint (i.e. the pair can commute in that situation).
func assertCommuteUnder(t *testing.T, r PairResult, extra *sym.Expr, why string) {
	t.Helper()
	var s sym.Solver
	for _, p := range r.CommutativePaths() {
		if s.Sat(sym.And(p.CommuteCond, extra)) {
			return
		}
	}
	t.Errorf("%s x %s: no commutative path under %v (%s)", r.OpA, r.OpB, extra, why)
}

// assertNeverCommutesUnder checks no commutative path admits the constraint.
func assertNeverCommutesUnder(t *testing.T, r PairResult, extra *sym.Expr, why string) {
	t.Helper()
	var s sym.Solver
	for _, p := range r.CommutativePaths() {
		if s.Sat(sym.And(p.CommuteCond, extra)) {
			t.Errorf("%s x %s: unexpectedly commutes under %v (%s)", r.OpA, r.OpB, extra, why)
			return
		}
	}
}

func fvar(name string) *sym.Expr { return sym.Var(name, model.FilenameSort) }

// §5.1's rename×rename commutativity classes from Figure 4's model. The
// analyzer must find commutative conditions exactly for the classes the
// paper lists, and reject the order-dependent ones.
func TestRenameRenameClasses(t *testing.T) {
	r := analyze(t, "rename", "rename", Options{})
	a, b := fvar("rename.0.src"), fvar("rename.0.dst")
	c, d := fvar("rename.1.src"), fvar("rename.1.dst")

	srcExists := func(src string) *sym.Expr {
		return sym.Var("fname["+src+"].present", sym.BoolSort)
	}
	allDiff := sym.And(sym.Ne(a, b), sym.Ne(a, c), sym.Ne(a, d),
		sym.Ne(b, c), sym.Ne(b, d), sym.Ne(c, d))

	// Class 1: both sources exist and all four names differ.
	assertCommuteUnder(t, r,
		sym.And(srcExists("rename.0.src"), srcExists("rename.1.src"), allDiff),
		"distinct names with existing sources commute")

	// Class 2: one source missing and not the other rename's destination.
	assertCommuteUnder(t, r,
		sym.And(srcExists("rename.0.src"), sym.Not(srcExists("rename.1.src")),
			sym.Ne(b, c), allDiffExcept(a, b, c, d)),
		"missing source commutes when it is not the other's destination")

	// Class 3: neither source exists.
	assertCommuteUnder(t, r,
		sym.And(sym.Not(srcExists("rename.0.src")), sym.Not(srcExists("rename.1.src")),
			sym.Ne(a, d), sym.Ne(c, b)),
		"two failing renames commute")

	// Class 4: both self-renames.
	assertCommuteUnder(t, r,
		sym.And(sym.Eq(a, b), sym.Eq(c, d)),
		"self-renames commute")

	// Class 5: one self-rename of an existing file, not the other's source.
	assertCommuteUnder(t, r,
		sym.And(srcExists("rename.0.src"), sym.Eq(a, b), sym.Ne(a, c)),
		"self-rename of existing file commutes when not the other's source")

	// Anti-class: same destination for two different existing sources is
	// order-dependent (the last rename wins).
	assertNeverCommutesUnder(t, r,
		sym.And(srcExists("rename.0.src"), srcExists("rename.1.src"),
			sym.Eq(b, d), sym.Ne(a, c), sym.Ne(a, b), sym.Ne(c, d),
			// exclude the hard-link special case (same inode)
			sym.Ne(sym.Var("fname[rename.0.src].inum", sym.IntSort),
				sym.Var("fname[rename.1.src].inum", sym.IntSort))),
		"two renames of different inodes to one name are order-dependent")

	// Anti-class: chained renames (b == c) with both sources existing.
	assertNeverCommutesUnder(t, r,
		sym.And(srcExists("rename.0.src"), srcExists("rename.1.src"),
			sym.Eq(b, c), allDiffExcept2(a, b, c, d)),
		"rename chains are order-dependent")
}

// allDiffExcept returns pairwise inequality over the names except the pairs
// the caller constrains separately (helpers for readability).
func allDiffExcept(a, b, c, d *sym.Expr) *sym.Expr {
	return sym.And(sym.Ne(a, b), sym.Ne(a, c), sym.Ne(a, d), sym.Ne(b, d), sym.Ne(c, d))
}

func allDiffExcept2(a, b, c, d *sym.Expr) *sym.Expr {
	return sym.And(sym.Ne(a, b), sym.Ne(a, c), sym.Ne(a, d), sym.Ne(b, d), sym.Ne(c, d))
}

// §3.2's open example: two open(O_CREAT|O_EXCL) calls on one name don't
// commute when the file is absent (one creates, one fails), but do commute
// when the file already exists (both fail identically).
func TestOpenExclusiveStateDependence(t *testing.T) {
	r := analyze(t, "open", "open", Options{})
	sameName := sym.Eq(fvar("open.0.fname"), fvar("open.1.fname"))
	bothExcl := sym.And(
		sym.Var("open.0.creat", sym.BoolSort), sym.Var("open.0.excl", sym.BoolSort),
		sym.Var("open.1.creat", sym.BoolSort), sym.Var("open.1.excl", sym.BoolSort))
	exists := sym.Var("fname[open.0.fname].present", sym.BoolSort)

	assertCommuteUnder(t, r,
		sym.And(sameName, bothExcl, exists),
		"O_EXCL on an existing file fails either way")
	assertNeverCommutesUnder(t, r,
		sym.And(sameName, bothExcl, sym.Not(exists)),
		"O_EXCL on a missing file: one succeeds, one fails, order matters")
}

func TestCreateDifferentNamesCommutes(t *testing.T) {
	r := analyze(t, "open", "open", Options{})
	creat := sym.And(sym.Var("open.0.creat", sym.BoolSort), sym.Var("open.1.creat", sym.BoolSort))
	diff := sym.Ne(fvar("open.0.fname"), fvar("open.1.fname"))
	assertCommuteUnder(t, r, sym.And(creat, diff),
		"creating differently named files commutes (§1)")
}

// getpid-style unconditional commutativity does not exist for stat pairs on
// the same changing state, but stat×stat always commutes (read-only).
func TestStatStatAlwaysCommutes(t *testing.T) {
	r := analyze(t, "stat", "stat", Options{})
	diverges, unknown := CanDiverge(context.Background(), r)
	for i, p := range r.Paths {
		if diverges[i] || unknown[i] {
			t.Errorf("stat x stat path can diverge (%v, unknown %v) under %v", diverges[i], unknown[i], p.PC)
		}
	}
}

// The lowest-FD rule (§4): two opens in one process stop commuting when FD
// allocation is deterministic, and commute again in different processes.
func TestLowestFDDestroysCommutativity(t *testing.T) {
	r := analyze(t, "open", "open", Options{Config: spec.Config{LowestFD: true}})
	sameProc := sym.Eq(sym.Var("open.0.proc", sym.BoolSort), sym.Var("open.1.proc", sym.BoolSort))
	diffNames := sym.Ne(fvar("open.0.fname"), fvar("open.1.fname"))
	bothExist := sym.And(
		sym.Var("fname[open.0.fname].present", sym.BoolSort),
		sym.Var("fname[open.1.fname].present", sym.BoolSort))
	// Force both opens to succeed: names exist and O_EXCL is off (else
	// both fail with EEXIST and commute), and descriptor 0 is free (else
	// both can fail with EMFILE and commute).
	slot0Free := sym.Not(sym.Var("fd[open.0.proc,0].present", sym.BoolSort))
	noExcl := sym.And(
		sym.Not(sym.Var("open.0.excl", sym.BoolSort)),
		sym.Not(sym.Var("open.1.excl", sym.BoolSort)))
	assertNeverCommutesUnder(t, r,
		sym.And(sameProc, diffNames, bothExist, slot0Free, noExcl),
		"lowest-FD: both opens succeed in one process, FDs depend on order")
	assertCommuteUnder(t, r,
		sym.And(sym.Not(sameProc), diffNames, bothExist),
		"different processes have independent FD spaces")
}

// With AnyFD (the §4 fix), the same situation commutes.
func TestAnyFDRestoresCommutativity(t *testing.T) {
	r := analyze(t, "open", "open", Options{})
	sameProc := sym.Eq(sym.Var("open.0.proc", sym.BoolSort), sym.Var("open.1.proc", sym.BoolSort))
	diffNames := sym.Ne(fvar("open.0.fname"), fvar("open.1.fname"))
	bothExist := sym.And(
		sym.Var("fname[open.0.fname].present", sym.BoolSort),
		sym.Var("fname[open.1.fname].present", sym.BoolSort))
	assertCommuteUnder(t, r,
		sym.And(sameProc, diffNames, bothExist),
		"any-FD opens in one process commute")
}

// link×unlink: distinct names on the same inode commute (nlink net effect
// is order-independent); unlinking the link's target first does not.
func TestLinkUnlinkClasses(t *testing.T) {
	r := analyze(t, "link", "unlink", Options{})
	old, nw := fvar("link.0.old"), fvar("link.0.new")
	victim := fvar("unlink.1.fname")
	oldExists := sym.Var("fname[link.0.old].present", sym.BoolSort)
	victimExists := sym.Var("fname[unlink.1.fname].present", sym.BoolSort)

	assertCommuteUnder(t, r,
		sym.And(oldExists, victimExists,
			sym.Ne(old, nw), sym.Ne(old, victim), sym.Ne(nw, victim)),
		"link and unlink of disjoint names commute")
	assertNeverCommutesUnder(t, r,
		sym.And(oldExists, sym.Eq(old, victim), sym.Ne(nw, old)),
		"unlinking the link source is order-dependent")
}

// write×write on one descriptor never commutes (both the offset and the
// data depend on order); pwrite×pwrite at different offsets commutes.
func TestWriteCommutativity(t *testing.T) {
	rw := analyze(t, "write", "write", Options{})
	sameFD := sym.And(
		sym.Eq(sym.Var("write.0.proc", sym.BoolSort), sym.Var("write.1.proc", sym.BoolSort)),
		sym.Eq(sym.Var("write.0.fd", sym.IntSort), sym.Var("write.1.fd", sym.IntSort)))
	fdPresent := sym.Var("fd[write.0.proc,write.0.fd].present", sym.BoolSort)
	isFile := sym.Not(sym.Var("fd[write.0.proc,write.0.fd].ispipe", sym.BoolSort))
	diffVals := sym.Ne(sym.Var("write.0.val", model.DataSort), sym.Var("write.1.val", model.DataSort))
	assertNeverCommutesUnder(t, rw, sym.And(sameFD, fdPresent, isFile, diffVals),
		"file writes through one descriptor are order-dependent")

	rp := analyze(t, "pwrite", "pwrite", Options{})
	samePFD := sym.And(
		sym.Eq(sym.Var("pwrite.0.proc", sym.BoolSort), sym.Var("pwrite.1.proc", sym.BoolSort)),
		sym.Eq(sym.Var("pwrite.0.fd", sym.IntSort), sym.Var("pwrite.1.fd", sym.IntSort)))
	diffOff := sym.Ne(sym.Var("pwrite.0.off", sym.IntSort), sym.Var("pwrite.1.off", sym.IntSort))
	assertCommuteUnder(t, rp, sym.And(samePFD, diffOff),
		"pwrites at different offsets commute")
}

// Paths of one pair are disjoint and every path classifies as commutative,
// divergent, or both (a path whose condition splits).
func TestPathClassificationSanity(t *testing.T) {
	r := analyze(t, "unlink", "unlink", Options{})
	if len(r.Paths) == 0 {
		t.Fatal("no paths")
	}
	var s sym.Solver
	diverges, _ := CanDiverge(context.Background(), r)
	for i, p := range r.Paths {
		if !p.Commutes && !diverges[i] {
			t.Errorf("path %d neither commutes nor diverges", i)
		}
		if p.Commutes && !s.Sat(p.CommuteCond) {
			t.Errorf("path %d: Commutes set but condition unsat", i)
		}
	}
}

// VarKinds must classify model variables usefully for TESTGEN.
func TestVarKindsClassification(t *testing.T) {
	r := analyze(t, "open", "open", Options{})
	p := r.Paths[0]
	if p.VarKinds["open.0.fname"] != symx.KindArg {
		t.Error("argument variable not classified as KindArg")
	}
	found := false
	for name, k := range p.VarKinds {
		if k == symx.KindNondet && name == "alloc.fd.0" {
			found = true
		}
	}
	_ = found // allocation may not occur on path 0; presence checked below
	any := false
	for _, pp := range r.Paths {
		for name, k := range pp.VarKinds {
			if k == symx.KindNondet && name == "alloc.fd.0" {
				any = true
			}
		}
	}
	if !any {
		t.Error("no path classified alloc.fd.0 as nondeterministic")
	}
}

func TestSummaryFormat(t *testing.T) {
	r := analyze(t, "close", "close", Options{})
	s := r.Summary()
	if s == "" || r.OpA != "close" {
		t.Errorf("summary = %q", s)
	}
}
