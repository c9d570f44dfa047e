// Package spec defines the pluggable interface-specification layer of the
// COMMUTER pipeline. The scalable commutativity rule is about interfaces,
// not about POSIX: ANALYZE explores a symbolic model of *some* interface,
// TESTGEN concretizes its commutativity conditions, and CHECK runs the
// concrete tests against implementations of that same interface. A Spec
// bundles everything the pipeline needs to know about one interface:
//
//   - the operation universe (Ops, plus named subsets for the CLI),
//   - symbolic state construction (NewState) and the state's dictionary
//     layout (State.Dicts, which equivalence and Probes walk),
//   - concretization: a SetupMiner (NewMiner) reads a solver witness's
//     initial-state probes, which TESTGEN plans and evaluates through
//     Probes, into a concrete kernel.TestCase setup, and FixupCall adjusts
//     each materialized call,
//   - implementation bindings (Impls): the runners that can execute the
//     spec's calls under the MTRACE conflict checker.
//
// Specs self-register in the package registry (Register, usually from an
// init function), and every pipeline layer — analyzer, testgen, sweep,
// eval, the CLI — is generic over the Spec interface. Four specs register:
// the POSIX model (internal/model) as "posix", the mail-pipeline
// message-queue model (internal/queuespec) as "queue", the address-space
// model (internal/vmspec) as "vm" and the ordered key-value store
// (internal/kvspec) as "kv".
package spec

import (
	"slices"
	"sync/atomic"

	"repro/internal/kernel"
	"repro/internal/sym"
	"repro/internal/symx"
)

// Config selects specification variants shared by the pipeline layers.
// Fields a spec doesn't recognize are ignored by it (the zero Config is
// every spec's default behavior).
type Config struct {
	// LowestFD enforces POSIX's lowest-available-FD allocation rule
	// instead of the O_ANYFD specification nondeterminism (§4).
	LowestFD bool
}

// RetWidth is the uniform return-vector width of every operation:
// [code, i1, i2, i3, data]. code is 0/positive on success or a negated
// errno; unused slots hold zero (or the spec's zero data constant).
const RetWidth = 5

// ArgSpec describes one symbolic operation argument.
type ArgSpec struct {
	// Name is the argument name; instances are "<op>.<slot>.<name>".
	Name string
	// Sort of the argument.
	Sort sym.Sort
	// Min and Max bound integer arguments (inclusive) when Bounded.
	Min, Max int64
	Bounded  bool
}

// Exec bundles the execution context of one operation instance in one
// permutation run: the symbolic path context, the permutation's state (as
// built by the same spec's NewState) and the pipeline configuration.
type Exec struct {
	C   *symx.Context
	S   State
	Cfg Config
}

// Ret returns the return vector [code, i1, i2, i3, data] of a call run
// under x, from the region of x.C's Solver (symx.Context.Exprs): like the
// state the call ran on, it lives until the Solver's Forget.
func (x *Exec) Ret(code, i1, i2, i3, data *sym.Expr) []*sym.Expr {
	ret := x.C.Exprs(RetWidth)
	ret[0], ret[1], ret[2], ret[3], ret[4] = code, i1, i2, i3, data
	return ret
}

// Op defines one modeled operation of a spec.
type Op struct {
	// Name labels matrix rows/columns and concrete kernel.Calls.
	Name string
	// Args are the symbolic arguments. An argument literally named "proc"
	// of boolean sort is the pipeline-wide convention for the calling
	// process; TESTGEN maps it onto kernel.Call.Proc.
	Args []ArgSpec
	// Exec runs the call against x.S, returning a RetWidth vector.
	Exec func(x *Exec, slot string, args []*sym.Expr) []*sym.Expr

	// names holds the argument-variable names of every slot rendered so
	// far (see ArgNames).
	names atomic.Pointer[[]slotNames]
}

// slotNames is one slot's argument-variable names.
type slotNames struct {
	slot  string
	names []string
}

// ArgNames returns the names of op's argument variables in slot,
// "<op>.<slot>.<name>" in Args order: rendered at the slot's first call and
// shared from then on, so read-only. Every goroutine shares an Op, so the
// table is replaced, never written.
func (op *Op) ArgNames(slot string) []string {
	for {
		old := op.names.Load()
		var known []slotNames
		if old != nil {
			known = *old
		}
		for _, sn := range known {
			if sn.slot == slot {
				return sn.names
			}
		}
		names := make([]string, len(op.Args))
		for i, as := range op.Args {
			names[i] = op.Name + "." + slot + "." + as.Name
		}
		next := append(slices.Clip(known), slotNames{slot, names})
		if op.names.CompareAndSwap(old, &next) {
			return names
		}
	}
}

// State is one permutation's symbolic state, as built by a Spec.
type State interface {
	// Dicts returns the state's dictionaries in comparison order:
	// equivalence checking and TESTGEN's Probes walk them, pairing two
	// states' dictionaries by index.
	// Dictionaries whose invariant closures probe other dictionaries must
	// come before the dictionaries they probe (late materialization must
	// not race the comparison of the tables it references).
	// The slice is the state's own, built once with it, so a call
	// allocates nothing; it is read-only, since analyzer.Path's DictsA and
	// DictsB alias it.
	Dicts() []*symx.Dict
}

// Impl names one implementation of a spec's interface and how to build a
// fresh instance for one MTRACE-checked test run.
type Impl struct {
	Name string
	New  func() kernel.Kernel
}

// Spec is one pluggable interface specification. Implementations must be
// stateless values: the pipeline calls them concurrently from sweep
// workers.
type Spec interface {
	// Name is the registry key ("posix", "queue") and the identity folded
	// into sweep cache keys.
	Name() string
	// Ops returns the operation universe in canonical (matrix) order:
	// the spec's package-level table, the same *Op values on every call.
	// Callers must not modify it.
	Ops() []*Op
	// Sets names the op subsets the CLI accepts (e.g. posix's "fs"). The
	// "all" universe is implicit and need not be listed.
	Sets() map[string][]string
	// DefaultSet is the selector the CLI uses when -ops is not given:
	// "all" or one of Sets' keys (posix keeps its historical "fs").
	DefaultSet() string
	// NewState builds the spec's unconstrained symbolic initial state.
	NewState(c *symx.Context, cfg Config) State
	// NewMiner returns a SetupMiner of the spec's own, for one goroutine:
	// TESTGEN keeps one for every pair it generates.
	NewMiner() SetupMiner
	// FixupCall post-processes one materialized call — e.g. the POSIX
	// spec attaches the O_ANYFD flag to open/pipe calls unless cfg
	// selects the lowest-FD rule.
	FixupCall(cfg Config, call *kernel.Call)
	// Impls returns the implementation bindings, in default check order.
	Impls() []Impl
}

// SetupMiner turns the solver's models of a commutative path into
// concrete, realizable initial states: TESTGEN's one spec-specific step
// besides FixupCall. It is one object reused from path to path and model
// to model, so what it builds lives in storage it clears and reuses, and
// one miner serves one goroutine.
type SetupMiner interface {
	// Setup mines, once per model m of a path, a concrete, realizable
	// initial state from p, the path's Probes, with a deterministic order
	// in every field and nil for every empty one. It reads a dictionary
	// only through p.Eval, and keeps no Probe past its return. The Setup
	// is of the spec's kernels' own type and lives in the miner's storage
	// until the next Setup: a caller that keeps it keeps its Clone.
	Setup(m sym.Model, p *Probes) kernel.Setup
}

// MakeArgs materializes the symbolic arguments of op for an operation
// slot, named by ArgNames, applying declared bounds. The list is taken
// from the region of c's Solver (symx.Context.Exprs) and lives until its
// Forget.
func MakeArgs(c *symx.Context, op *Op, slot string) []*sym.Expr {
	names := op.ArgNames(slot)
	args := c.Exprs(len(op.Args))
	for i, spec := range op.Args {
		v := c.Var(names[i], spec.Sort, symx.KindArg)
		if spec.Bounded {
			c.Assume(sym.And(sym.Ge(v, sym.Int(spec.Min)), sym.Le(v, sym.Int(spec.Max))))
		}
		args[i] = v
	}
	return args
}

// RetEq builds the formula stating two return vectors are equal.
func RetEq(a, b []*sym.Expr) *sym.Expr {
	if len(a) != len(b) {
		panic("spec: return width mismatch")
	}
	var buf [RetWidth]*sym.Expr
	conj := buf[:0]
	for i := range a {
		conj = append(conj, sym.Eq(a[i], b[i]))
	}
	return sym.And(conj...)
}

// Equivalent appends to dst the conjuncts stating that two final states of
// the same spec, given by their Dicts, are indistinguishable through the
// interface: every dictionary holds equal content at every key either
// execution touched (symx.DictsEquivalent, one dictionary after another).
func Equivalent(dst []*sym.Expr, c *symx.Context, da, db []*symx.Dict) []*sym.Expr {
	if len(da) != len(db) {
		panic("spec: comparing states with different dictionary layouts")
	}
	for i := range da {
		dst = symx.DictsEquivalent(dst, c, da[i], db[i])
	}
	return dst
}
