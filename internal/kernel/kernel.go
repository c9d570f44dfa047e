// Package kernel defines the call surface shared by the implementations
// under test (package unix's two designs, Linux and SV6, for the POSIX spec;
// memvm, memkv and memq for the vm, kv and queue specs), the concrete
// test-case format TESTGEN emits, and the MTRACE-style Replayer that checks
// an implementation's conflict-freedom on test cases.
package kernel

import (
	"bytes"
	"encoding/json"
	"fmt"
	"maps"
	"reflect"
	"slices"
	"strconv"
	"strings"

	"repro/internal/mtrace"
)

// Errno values, shared by the specs' models and their implementations.
const (
	ENOENT = 2
	EBADF  = 9
	EEXIST = 17
	EINVAL = 22
	EMFILE = 24
	ESPIPE = 29
	ENOMEM = 12
	ENODEV = 19
	EAGAIN = 11
	// ESIGSEGV and ESIGBUS are pseudo-errnos reporting faults.
	ESIGSEGV = 1001
	ESIGBUS  = 1002
)

// Result is a syscall result: Code is the return value (>= 0) or a negated
// errno; V1..V3 carry extra integers (inode number, link count, length,
// descriptors); Data carries one page of read data as a token.
type Result struct {
	Code int64
	V1   int64
	V2   int64
	V3   int64
	Data int64
}

func (r Result) String() string {
	return fmt.Sprintf("(%d,%d,%d,%d,%d)", r.Code, r.V1, r.V2, r.V3, r.Data)
}

// Errno is the result of a call that failed with errno.
func Errno(errno int64) Result { return Result{Code: -errno} }

// Call is one concrete system call. Args hold the per-operation argument
// values under the same names the model uses ("fname", "fd", "off", ...).
// Filename arguments hold small ids; implementations render them as "fN".
// The Proc field selects the calling process (0 or 1); the core is chosen
// by the runner.
type Call struct {
	Op   string
	Proc int
	Args map[string]int64
}

// Arg returns the named argument (0 when absent).
func (c Call) Arg(name string) int64 { return c.Args[name] }

// ArgBool returns the named argument as a flag.
func (c Call) ArgBool(name string) bool { return c.Args[name] != 0 }

// Fname renders a filename id as a path component. The ids a model
// assigns are small, and their names are rendered once, so mining a setup
// that names them allocates nothing.
func Fname(id int64) string {
	if id >= 0 && id < int64(len(fnames)) {
		return fnames[id]
	}
	return "f" + strconv.FormatInt(id, 10)
}

var fnames = func() (t [16]string) {
	for i := range t {
		t[i] = "f" + strconv.Itoa(i)
	}
	return t
}()

func (c Call) String() string {
	var parts []string
	for _, k := range slices.Sorted(maps.Keys(c.Args)) {
		parts = append(parts, fmt.Sprintf("%s=%d", k, c.Args[k]))
	}
	return fmt.Sprintf("%s@p%d(%s)", c.Op, c.Proc, strings.Join(parts, ","))
}

// Setup is the concrete initial state of a test case, in the tables of the
// spec it was written for: each spec's kernels define their own type
// beside their Apply, register it (RegisterSetup) and read no other.
type Setup interface {
	// AppendFingerprint appends the setup's Fingerprint to dst and returns
	// the extended buffer, so a caller that fingerprints setup after setup
	// can reuse one buffer and look its maps up without making a string.
	AppendFingerprint(dst []byte) []byte
	// Fingerprint returns a canonical content-address of the setup: two
	// setups of one type with the same fingerprint describe the same
	// initial state, so the checker can apply the setup once and replay
	// every test sharing it against snapshot/reset. The encoding is an
	// exact rendering (not a hash), so there is no collision risk.
	Fingerprint() string
	// Clone returns a deep copy: it shares no slice or map with the
	// receiver, and a table that is nil in the receiver is nil in the copy.
	Clone() Setup
	// Admit reports why the setup's own tables are not fit for its kernels
	// (see kernel.Admit), or nil.
	Admit() error
	// String renders every field of every row, one line a row.
	String() string
}

// setupTypes maps a spec's name to a blank of its setup type, and
// setupNames the types back: a TestCase's JSON carries its setup under that
// name.
var (
	setupTypes = map[string]func() Setup{}
	setupNames = map[reflect.Type]string{}
)

// RegisterSetup names blank's type as spec's setup type, for TestCase's
// JSON, and returns the refusal of the kernels that run spec's tests by
// dispatching on ops: it refuses a call naming an op ops lacks, then a
// setup of another type. A kernel package calls it once, with the table
// its Exec dispatches on, and its Kernel.Refuse is the refusal.
func RegisterSetup[F any](spec string, blank func() Setup, ops map[string]F) func(*TestCase) error {
	setupTypes[spec] = blank
	setupNames[reflect.TypeOf(blank())] = spec
	return func(tc *TestCase) error {
		for _, c := range tc.Calls {
			if _, ok := ops[c.Op]; !ok {
				return fmt.Errorf("unknown %s op %q (known ops: %s)", spec, c.Op, strings.Join(slices.Sorted(maps.Keys(ops)), ", "))
			}
		}
		if got := SetupSpec(tc.Setup); got != spec {
			return fmt.Errorf("setup of spec %q, not %s", got, spec)
		}
		return nil
	}
}

// SetupSpec names the spec whose setup s is: "" for nil or an unregistered
// type.
func SetupSpec(s Setup) string { return setupNames[reflect.TypeOf(s)] }

// AppendItems appends "=[i0 i1 ...];", the fingerprint of a backlog.
func AppendItems(dst []byte, items []int64) []byte {
	dst = append(dst, "=["...)
	for i, it := range items {
		if i > 0 {
			dst = append(dst, ' ')
		}
		dst = strconv.AppendInt(dst, it, 10)
	}
	return append(dst, "];"...)
}

// TestCase is one generated commutative test: after Setup, the two Calls
// run on different cores and, per the commutativity rule, admit a
// conflict-free execution. The tests of one testgen Generate share their
// Setup values and their calls' Args maps wherever these are equal, so a
// generated test is read-only: a caller that edits one edits a copy.
type TestCase struct {
	// ID names the test (pair, path and assignment indices).
	ID string
	// Setup is the concrete initial state.
	Setup Setup
	// Calls are the two commutative operations.
	Calls [2]Call
	// SetupID is Setup.Fingerprint(), stamped by testgen so the checker
	// can group tests sharing an initial state without recomputing it.
	// Excluded from the wire/cache encodings: decoders regroup via
	// Fingerprint when it is empty.
	SetupID string `json:"-"`
}

// testCaseJSON is TestCase's encoding: the setup is one object whose one
// key is the spec the setup type is registered under, {"posix": {...}}.
type testCaseJSON struct {
	ID    string
	Setup json.RawMessage
	Calls [2]Call
}

// MarshalJSON encodes tc with its setup under its spec's name; a test
// with no setup, or one of an unregistered type, does not encode.
func (tc TestCase) MarshalJSON() ([]byte, error) {
	name := SetupSpec(tc.Setup)
	if name == "" {
		return nil, fmt.Errorf("test %s: setup %T is no registered spec's", tc.ID, tc.Setup)
	}
	body, err := json.Marshal(tc.Setup)
	if err != nil {
		return nil, err
	}
	setup := append(append(append(strconv.AppendQuote([]byte("{"), name), ':'), body...), '}')
	return json.Marshal(testCaseJSON{tc.ID, setup, tc.Calls})
}

// UnmarshalJSON decodes what MarshalJSON encodes, and refuses a field
// TestCase does not have, a setup naming no registered spec or a second
// one, and a table the named spec's setup does not have: a body or cache
// entry in another format is refused, not misread.
func (tc *TestCase) UnmarshalJSON(data []byte) error {
	var w testCaseJSON
	if err := strictDecode(json.NewDecoder(bytes.NewReader(data)), &w); err != nil {
		return err
	}
	dec := json.NewDecoder(bytes.NewReader(w.Setup))
	if open, err := dec.Token(); err != nil || open != json.Delim('{') {
		return fmt.Errorf("test %s: a setup is an object naming its spec", w.ID)
	}
	var name string
	if key, err := dec.Token(); err == nil {
		name, _ = key.(string)
	}
	blank, ok := setupTypes[name]
	if !ok {
		return fmt.Errorf("test %s: setup names %q, not a registered spec", w.ID, name)
	}
	s := blank()
	if err := strictDecode(dec, s); err != nil {
		return fmt.Errorf("test %s: %s setup: %w", w.ID, name, err)
	}
	if end, err := dec.Token(); err != nil || end != json.Delim('}') {
		return fmt.Errorf("test %s: setup names a spec besides %s", w.ID, name)
	}
	*tc = TestCase{ID: w.ID, Setup: s, Calls: w.Calls}
	return nil
}

// strictDecode decodes dec's next value into v, refusing a field v lacks.
func strictDecode(dec *json.Decoder, v any) error {
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// Kernel is the interface every implementation under test provides, and
// the whole of what one owes the checker: keep every piece of state in cells
// of its traced memory, in mtrace.Maps (whose lookups trace absence too) or
// in variables set through mtrace.SetVar, so that the memory's Reset alone
// returns the kernel to an earlier state. (A structure built on demand and
// left in place is fine when a reset one is indistinguishable from an
// unbuilt one: a sweep worker's Replayer keeps it for every later group and
// pair.) A Replayer hands Apply and Exec only tests that Admit and Refuse
// let through, and reports what they panic over as the test's error.
type Kernel interface {
	// Name identifies the implementation, as its spec registers it
	// ("linux", "sv6", "memvm", ...).
	Name() string
	// Memory returns the kernel's traced memory, through whose snapshot
	// journal the Replayer rolls the kernel back.
	Memory() *mtrace.Memory
	// Refuse reports why the kernel does not run tc, or nil: a call names
	// an op outside the table Exec dispatches on, or the setup is not of
	// the type Apply reads (see RegisterSetup).
	Refuse(tc *TestCase) error
	// Apply initializes kernel state from a setup (untraced).
	Apply(s Setup)
	// Exec performs one system call on the given simulated core.
	Exec(core int, c Call) Result
}

// CheckResult reports one test case's conflict-freedom on a kernel.
type CheckResult struct {
	// ConflictFree is the MTRACE verdict.
	ConflictFree bool
	// Conflicts lists the shared cells when not conflict-free.
	Conflicts []mtrace.Conflict
	// Res holds the results of the two calls, in the order they ran.
	Res [2]Result
}
