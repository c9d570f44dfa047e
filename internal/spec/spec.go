// Package spec defines the pluggable interface-specification layer of the
// COMMUTER pipeline. The scalable commutativity rule is about interfaces,
// not about POSIX: ANALYZE explores a symbolic model of *some* interface,
// TESTGEN concretizes its commutativity conditions, and CHECK runs the
// concrete tests against implementations of that same interface. A Spec
// bundles everything the pipeline needs to know about one interface:
//
//   - the operation universe (Ops, plus named subsets for the CLI),
//   - symbolic state construction (NewState) and the state's dictionary
//     layout (State.Dicts, which equivalence and probe mining walk),
//   - a Concretizer that turns a solver witness into a concrete
//     kernel.TestCase setup,
//   - implementation bindings (Impls): the runners that can execute the
//     spec's calls under the MTRACE conflict checker.
//
// Specs self-register in the package registry (Register, usually from an
// init function), and every pipeline layer — analyzer, testgen, sweep,
// eval, the CLI — is generic over the Spec interface. The POSIX model
// (internal/model) registers as "posix"; the mail-pipeline message-queue
// model (internal/queuespec) registers as "queue".
package spec

import (
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
}

// State is one permutation's symbolic state, as built by a Spec.
type State interface {
	// Dicts returns the state's dictionaries in comparison order:
	// equivalence checking and TESTGEN's initial-probe mining walk them.
	// Dictionaries whose invariant closures probe other dictionaries must
	// come before the dictionaries they probe (late materialization must
	// not race the comparison of the tables it references).
	Dicts() []*symx.Dict
}

// Impl names one implementation of a spec's interface and how to build a
// fresh instance for one MTRACE-checked test run.
type Impl struct {
	Name string
	New  func() kernel.Kernel
}

// Concretizer turns one satisfying assignment of a commutativity condition
// into the concrete parts of a test case that are specific to the spec.
type Concretizer interface {
	// PlanSetup resolves, once per path, what mining a setup from the two
	// permutations' final symbolic states does not need a model for (their
	// dictionaries' initial-probe entries: PlanProbes), and returns the
	// function TESTGEN then calls once per model assignment m to mine a
	// concrete, realizable initial state. The function may reuse storage
	// between calls; the Setup it returns is the caller's to keep.
	PlanSetup(a, b State) func(m sym.Model) kernel.Setup
	// FixupCall post-processes one materialized call — e.g. the POSIX
	// spec attaches the O_ANYFD flag to open/pipe calls unless cfg
	// selects the lowest-FD rule.
	FixupCall(cfg Config, call *kernel.Call)
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
	// Concretizer returns the spec's witness-to-setup converter.
	Concretizer() Concretizer
	// Impls returns the implementation bindings, in default check order.
	Impls() []Impl
}

// MakeArgs materializes the symbolic arguments of op for an operation
// slot, applying declared bounds.
func MakeArgs(c *symx.Context, op *Op, slot string) []*sym.Expr {
	args := make([]*sym.Expr, len(op.Args))
	for i, spec := range op.Args {
		v := c.Var(op.Name+"."+slot+"."+spec.Name, spec.Sort, symx.KindArg)
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
	conj := make([]*sym.Expr, len(a))
	for i := range a {
		conj[i] = sym.Eq(a[i], b[i])
	}
	return sym.And(conj...)
}

// Equivalent builds the formula stating that two final states of the same
// spec are indistinguishable through the interface: every dictionary holds
// equal content at every key either execution touched.
func Equivalent(c *symx.Context, a, b State) *sym.Expr {
	da, db := a.Dicts(), b.Dicts()
	if len(da) != len(db) {
		panic("spec: comparing states with different dictionary layouts")
	}
	conj := make([]*sym.Expr, len(da))
	for i := range da {
		conj[i] = symx.DictsEquivalent(c, da[i], db[i])
	}
	return sym.And(conj...)
}
