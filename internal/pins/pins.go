// Package pins holds the three verdict pins that internal/testgen's
// TestCorpusDigest checks the pipeline against, and turns two of them into
// what the sweep cache keys fold in:
//
//   - analysis.digest hashes every path ANALYZE finds, per spec universe;
//   - corpus.digest hashes every generated test, per spec universe;
//   - trace.digest hashes what every implementation does with those
//     tests, per universe and Impl.
//
// A change that moves a verdict fails TestCorpusDigest until its -update
// rewrites the digests, and the rewrite re-keys exactly the entries the
// moved lines cover: a spec's corpus lines key its TESTGEN entries, an
// Impl's trace lines its CHECK cells. The analysis pin keys nothing: the
// cache stores tests, not paths.
package pins

import (
	"crypto/sha256"
	_ "embed"
	"strings"
)

//go:embed corpus.digest
var corpusDigest string

//go:embed trace.digest
var traceDigest string

// Table is one set of pins: a SHA-256 per spec over that spec's
// corpus.digest lines, and one per Impl name over that Impl's
// trace.digest lines, each in file order. A pin is the 32 bytes of its
// sum, held as a string so a key can append it as it is.
type Table struct {
	specs, impls map[string]string
}

// Current is the table of the digests committed beside this file.
var Current = Parse(corpusDigest, traceDigest)

// Parse builds a table from the text of corpus.digest and trace.digest.
// A corpus line starts with "<spec>/<set>"; a trace line's third field
// is the Impl's name.
func Parse(corpus, trace string) Table {
	return Table{specs: group(corpus, 0), impls: group(trace, 2)}
}

// group hashes the lines of text by the name in their given field, up to
// a '/'.
func group(text string, field int) map[string]string {
	lines := map[string]string{}
	for line := range strings.Lines(text) {
		if f := strings.Fields(line); len(f) > field {
			name, _, _ := strings.Cut(f[field], "/")
			lines[name] += strings.TrimSuffix(line, "\n") + "\n"
		}
	}
	for name, l := range lines {
		sum := sha256.Sum256([]byte(l))
		lines[name] = string(sum[:])
	}
	return lines
}

// Spec returns the named spec's pin, or "" when corpus.digest has no
// line for it.
func (t Table) Spec(name string) string { return t.specs[name] }

// Impl returns the named Impl's pin, or "" when trace.digest has no line
// for it.
func (t Table) Impl(name string) string { return t.impls[name] }
