package testgen

import (
	"testing"

	"repro/internal/kernel"
)

// TestConflictFreeIsOrderFree is an oracle for what MTRACE cannot see, over
// every generated test of all four specs, posix under both FD rules, on
// every registered Impl: kerneltest.OrderFree, so a test kerneltest.Check
// calls conflict-free must give the same results with its calls in the
// other order. kerneltest's TestRandomSetupsAreOrderFree holds the kernels
// to the same over random setups. Under the lowest-FD rule it also holds the
// kernels to the spec's descriptor table: no open or pipe, in either
// order, returns a descriptor at or past kernel.MaxFD. It reads the corpus
// walk TestCorpusDigest reads the digests of (corpusWalk).
func TestConflictFreeIsOrderFree(t *testing.T) {
	if testing.Short() {
		t.Skip("full ANALYZE+TESTGEN of every spec")
	}
	w := corpusWalk()
	if w.err != nil {
		t.Fatal(w.err)
	}
	for _, v := range w.disordered {
		t.Error(v)
	}
	for _, c := range w.counts {
		t.Log(c)
	}
}

// fdPastTable reports whether r, the result of an op, is a descriptor an
// open or pipe returned at or past kernel.MaxFD.
func fdPastTable(op string, r kernel.Result) bool {
	switch op {
	case "open":
		return r.Code >= kernel.MaxFD
	case "pipe":
		return r.Code == 0 && (r.V1 >= kernel.MaxFD || r.V2 >= kernel.MaxFD)
	}
	return false
}
