package symx

import (
	"context"

	"repro/internal/sym"
)

// explore runs fn to completion under a context that is never cancelled.
func explore(fn func(*Context) any, opt Options) []Path {
	paths, _, _ := RunCtx(context.Background(), fn, opt)
	return paths
}

// valid reports that e holds in every model over the candidate domains:
// its negation is unsatisfiable.
func valid(s *sym.Solver, e *sym.Expr) bool { return !s.Sat(sym.Not(e)) }
