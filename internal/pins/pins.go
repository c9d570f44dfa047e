// Package pins holds the three verdict pins that internal/testgen's
// TestCorpusDigest checks the pipeline against, a line per (universe[,
// Impl], pair) and a summary line per universe hashing its pair lines:
// analysis.digest hashes the paths ANALYZE finds, corpus.digest the
// generated tests, trace.digest what every implementation does with them.
//
// A pair line's hash is its leaf. A corpus leaf keys the pair's TESTGEN
// entries (and through them its CHECK cells), an (Impl, pair) trace leaf
// that one cell, so the -update that rewrites a moved line re-keys exactly
// those; a pair with no line takes its spec's or Impl's root, the hash of
// all their pair lines. The analysis pin keys nothing. The pins are taken
// at the default test shape, so a leaf assumes that a pair's tests at
// another shape move together with its tests at the pinned one, as a root
// does one level coarser.
package pins

import (
	"crypto/sha256"
	_ "embed"
	"hash"
	"strings"
)

//go:embed corpus.digest
var corpusDigest string

//go:embed trace.digest
var traceDigest string

// Key names a pair of a spec's ops, as the sweep orders it, under one FD
// rule, and for a trace pin its Impl; setting only Spec or Impl names a root.
type Key struct {
	Spec, OpA, OpB, Impl string
	LowestFD             bool
}

// Table is one set of pins, each the 32 bytes of a SHA-256, held as a
// string so a key can append it as it is. Pin is the only way to read one.
type Table struct{ pins map[Key]string }

// Current is the table of the digests committed beside this file.
var Current = Parse(corpusDigest, traceDigest)

// Parse builds a table from corpus.digest and trace.digest. A pair line
// reads "<spec>/<set> lowestfd=<bool> [<impl>] <opA>,<opB> <count>
// sha256=<hex>"; the roots are derived from the pair lines, here, each
// hashing its lines in file order as they are read.
func Parse(corpus, trace string) Table {
	t := make(map[Key]string, strings.Count(corpus, "\n")+strings.Count(trace, "\n"))
	roots := map[Key]hash.Hash{}
	var buf []byte
	for i, text := range []string{corpus, trace} {
		for line := range strings.Lines(text) {
			if f := strings.Fields(line); len(f) == 5+i {
				spec, _, _ := strings.Cut(f[0], "/")
				k, root := Key{Spec: spec, LowestFD: f[1] == "lowestfd=true"}, Key{Spec: spec}
				if i == 1 {
					k.Impl, root = f[2], Key{Impl: f[2]}
				}
				k.OpA, k.OpB, _ = strings.Cut(f[2+i], ",")
				buf = append(buf[:0], line...)
				leaf := sha256.Sum256(buf)
				t[k] = string(leaf[:])
				h := roots[root]
				if h == nil {
					h = sha256.New()
					roots[root] = h
				}
				h.Write(buf)
			}
		}
	}
	for k, h := range roots {
		t[k] = string(h.Sum(nil))
	}
	return Table{t}
}

// Pin returns k's leaf, else the root of k's Impl when k names one, else
// the root of k's spec; "" when that has no line.
func (t Table) Pin(k Key) string {
	if leaf, ok := t.pins[k]; ok {
		return leaf
	}
	if k.Impl != "" {
		return t.pins[Key{Impl: k.Impl}]
	}
	return t.pins[Key{Spec: k.Spec}]
}
