package sym

import (
	"strconv"
	"strings"
)

// compareRendered orders a and b as strings.Compare(a.String(),
// b.String()) does, without rendering either: it walks the two renderings
// chunk by chunk and stops at the first byte that differs. Where both walks
// stand at the same offset, each about to render a subterm, and the two
// subterms are one node, their bytes are equal and both walks skip them —
// the operands Eq orders are often ITE chains that share their tails. A
// node that already caches its rendering is read from the cache. Only an
// integer outside smallInts, an uninterpreted constant or a subterm nested
// past compareDepth is rendered, through String, which caches it; nothing
// else allocates.
func compareRendered(a, b *Expr) int {
	var x, y renderCursor
	x.node, y.node = a, b
	for {
		// A pending node follows a consumed blank (or is the whole term), and
		// both walks have consumed as many bytes: two pending nodes stand at
		// one offset.
		if x.node == y.node {
			x.node, y.node = nil, nil
		}
		xok, yok := x.next(), y.next()
		switch {
		case !xok && !yok:
			return 0
		case !xok:
			return -1
		case !yok:
			return 1
		}
		n := min(len(x.chunk), len(y.chunk))
		if c := strings.Compare(x.chunk[:n], y.chunk[:n]); c != 0 {
			return c
		}
		x.chunk, y.chunk = x.chunk[n:], y.chunk[n:]
	}
}

// compareDepth bounds the compound nodes a renderCursor holds open; a
// subterm past it is rendered whole.
const compareDepth = 32

// renderCursor produces one expression's rendering as a sequence of chunks:
// a cached rendering, a variable's name, a constant, a compound node's
// opening "(op", the blank before each argument and the closing ")".
type renderCursor struct {
	chunk string // produced and not yet compared
	node  *Expr  // the next subterm, not yet expanded
	open  [compareDepth]struct {
		e    *Expr
		next int // the argument to render next
	}
	depth int
}

// next makes chunk non-empty, or reports that the rendering has ended.
func (r *renderCursor) next() bool {
	for r.chunk == "" {
		if e := r.node; e != nil {
			r.node = nil
			r.chunk = r.expand(e)
			continue
		}
		if r.depth == 0 {
			return false
		}
		f := &r.open[r.depth-1]
		if f.next < len(f.e.Args) {
			r.chunk, r.node = " ", f.e.Args[f.next]
			f.next++
		} else {
			r.chunk = ")"
			r.depth--
		}
	}
	return true
}

// expand returns the first chunk of e's rendering, holding e open when its
// arguments follow.
func (r *renderCursor) expand(e *Expr) string {
	if s := e.str.Load(); s != nil {
		return *s
	}
	switch {
	case e.Op == OpVar:
		return e.Name
	case e.Op == OpConst && e.Sort.Kind == KindBool:
		return strconv.FormatBool(e.Bool)
	case e.Op == OpConst && e.Sort.Kind == KindInt && e.Int >= 0 && e.Int < int64(len(smallInts)):
		return smallInts[e.Int]
	case e.Op == OpConst || r.depth == compareDepth:
		return e.String()
	}
	r.open[r.depth].e, r.open[r.depth].next = e, 0
	r.depth++
	return opOpen[e.Op]
}

// smallInts and opOpen are the renderings compareRendered reads instead of
// formatting them: the integers 0–99, and "(" with each operator's name.
var (
	smallInts [100]string
	opOpen    [OpIte + 1]string
)

func init() {
	for i := range smallInts {
		smallInts[i] = strconv.Itoa(i)
	}
	for op := range opOpen {
		opOpen[op] = "(" + opName(Op(op))
	}
}
