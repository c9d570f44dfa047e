package sym

// BaseNodes returns the nodes the base table holds, for the tests outside
// the package.
func BaseNodes() []*Expr {
	var out []*Expr
	for i := range base.heads {
		for e := base.heads[i].Load(); e != nil; e = e.next {
			out = append(out, e)
		}
	}
	return out
}
