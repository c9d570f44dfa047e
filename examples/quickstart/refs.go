package main

// Register is a get/set cell, the reference for §3.2's monotonicity
// example.
type Register struct{ v int64 }

// NewRegister returns a zero register state.
func NewRegister() RefState { return &Register{} }

// Apply implements RefState: set(x) -> [0]; get() -> [v].
func (r *Register) Apply(class string, args []int64) []int64 {
	switch class {
	case "set":
		r.v = args[0]
		return []int64{0}
	case "get":
		return []int64{r.v}
	}
	panic("history: register op " + class)
}

// Clone implements RefState.
func (r *Register) Clone() RefState { c := *r; return &c }

// PutMax is §3.6's interface: put(x) records a sample, max() returns the
// maximum recorded so far (or 0).
type PutMax struct{ max int64 }

// NewPutMax returns an empty sample set.
func NewPutMax() RefState { return &PutMax{} }

// Apply implements RefState.
func (p *PutMax) Apply(class string, args []int64) []int64 {
	switch class {
	case "put":
		if args[0] > p.max {
			p.max = args[0]
		}
		return []int64{0}
	case "max":
		return []int64{p.max}
	}
	panic("history: putmax op " + class)
}

// Clone implements RefState.
func (p *PutMax) Clone() RefState { c := *p; return &c }

// Counter supports inc() and read(); inc does not commute with read but
// incs commute with each other — a minimal interface with a nontrivial
// commutative class.
type Counter struct{ n int64 }

// NewCounter returns a zero counter.
func NewCounter() RefState { return &Counter{} }

// Apply implements RefState.
func (c *Counter) Apply(class string, args []int64) []int64 {
	switch class {
	case "inc":
		c.n++
		return []int64{0}
	case "read":
		return []int64{c.n}
	}
	panic("history: counter op " + class)
}

// Clone implements RefState.
func (c *Counter) Clone() RefState { cp := *c; return &cp }
