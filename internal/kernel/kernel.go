// Package kernel defines the call surface shared by the implementations
// under test (package unix's two designs, Linux and SV6, for the POSIX spec;
// memvm, memkv and memq for the vm, kv and queue specs), the concrete
// test-case format TESTGEN emits, and the MTRACE-style Replayer that checks
// an implementation's conflict-freedom on test cases.
package kernel

import (
	"fmt"
	"sort"
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

// Fname renders a filename id as a path component.
func Fname(id int64) string { return fmt.Sprintf("f%d", id) }

// ParseFname inverts Fname: ok reports whether name is exactly Fname(id).
func ParseFname(name string) (id int64, ok bool) {
	if !strings.HasPrefix(name, "f") {
		return 0, false
	}
	id, err := strconv.ParseInt(name[1:], 10, 64)
	var canon [20]byte
	return id, err == nil && string(strconv.AppendInt(canon[:0], id, 10)) == name[1:]
}

func (c Call) String() string {
	keys := make([]string, 0, len(c.Args))
	for k := range c.Args {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s=%d", k, c.Args[k])
	}
	return fmt.Sprintf("%s@p%d(%s)", c.Op, c.Proc, strings.Join(parts, ","))
}

// SetupFile creates one directory entry in the initial state. Multiple
// entries may share an Inum to set up hard links.
type SetupFile struct {
	Name string
	Inum int64
}

// SetupInode fixes an inode's initial metadata and content.
type SetupInode struct {
	Inum int64
	// ExtraLinks adds hidden hard links (names outside the test's name
	// space) so the link count can exceed the visible name count, the
	// trick Figure 5 of the paper uses with "__i0".
	ExtraLinks int
	// Len is the file length in pages.
	Len int64
	// Pages maps page index -> content token for pages with fixed
	// initial content.
	Pages map[int64]int64
}

// SetupFD opens a descriptor in a process's table before the test runs.
type SetupFD struct {
	Proc int
	FD   int64
	// Pipe selects a pipe descriptor (PipeID, WriteEnd) instead of a
	// file descriptor (Inum, Off).
	Pipe     bool
	PipeID   int64
	WriteEnd bool
	Inum     int64
	Off      int64
}

// SetupPipe creates a pipe with queued content.
type SetupPipe struct {
	ID int64
	// Items are the queued page tokens, oldest first.
	Items []int64
}

// SetupVMA maps one page of a process's address space.
type SetupVMA struct {
	Proc int
	Page int64
	Anon bool
	// Val is the anonymous page's initial content token.
	Val      int64
	Writable bool
	Inum     int64
	Foff     int64
}

// SetupQueue seeds one message queue of the queue spec's reference
// implementation. Core -1 is the shared ordered queue; Core >= 0 seeds
// one per-core unordered queue. Items are queued page tokens, oldest
// first.
type SetupQueue struct {
	Core  int64
	Items []int64
}

// SetupKV seeds one key of the kv spec's reference store with a present
// binding.
type SetupKV struct {
	Key int64
	Val int64
}

// Setup is the concrete initial state of a test case. The fs/VM fields
// are consumed by the POSIX kernels; Queues by the queue spec's reference
// implementation; KVs by the kv spec's — each implementation ignores the
// fields of interfaces it does not provide.
type Setup struct {
	Files  []SetupFile
	Inodes []SetupInode
	FDs    []SetupFD
	Pipes  []SetupPipe
	VMAs   []SetupVMA
	Queues []SetupQueue `json:",omitempty"`
	KVs    []SetupKV    `json:",omitempty"`
}

// Fingerprint returns a canonical content-address of the setup: two setups
// with the same fingerprint describe the same initial state, so the
// checker can apply the setup once and replay every test sharing it
// against snapshot/reset. The encoding is an exact rendering (not a hash),
// so equal fingerprints imply equal setups with no collision risk.
func (s Setup) Fingerprint() string {
	var b strings.Builder
	for _, f := range s.Files {
		fmt.Fprintf(&b, "F%s=%d;", f.Name, f.Inum)
	}
	for _, in := range s.Inodes {
		fmt.Fprintf(&b, "I%d,x%d,l%d", in.Inum, in.ExtraLinks, in.Len)
		if len(in.Pages) > 0 {
			idxs := make([]int64, 0, len(in.Pages))
			for idx := range in.Pages {
				idxs = append(idxs, idx)
			}
			sort.Slice(idxs, func(i, j int) bool { return idxs[i] < idxs[j] })
			for _, idx := range idxs {
				fmt.Fprintf(&b, ",p%d=%d", idx, in.Pages[idx])
			}
		}
		b.WriteByte(';')
	}
	for _, fd := range s.FDs {
		if fd.Pipe {
			fmt.Fprintf(&b, "D%d,%d,pipe%d,w%t;", fd.Proc, fd.FD, fd.PipeID, fd.WriteEnd)
		} else {
			fmt.Fprintf(&b, "D%d,%d,i%d,o%d;", fd.Proc, fd.FD, fd.Inum, fd.Off)
		}
	}
	for _, p := range s.Pipes {
		fmt.Fprintf(&b, "P%d=%v;", p.ID, p.Items)
	}
	for _, v := range s.VMAs {
		fmt.Fprintf(&b, "V%d,%d,a%t,v%d,w%t,i%d,o%d;", v.Proc, v.Page, v.Anon, v.Val, v.Writable, v.Inum, v.Foff)
	}
	for _, q := range s.Queues {
		fmt.Fprintf(&b, "Q%d=%v;", q.Core, q.Items)
	}
	for _, kv := range s.KVs {
		fmt.Fprintf(&b, "K%d=%d;", kv.Key, kv.Val)
	}
	return b.String()
}

// TestCase is one generated commutative test: after Setup, the two Calls
// run on different cores and, per the commutativity rule, admit a
// conflict-free execution.
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

// Kernel is the interface every implementation under test provides, and
// the whole of what one owes the checker: keep every piece of state either
// in cells of its traced memory or in maps and variables set through
// mtrace.SetKey and mtrace.SetVar, so that the memory's Reset alone returns
// the kernel to an earlier state. (A structure built on demand and left in
// place is fine when a reset one is indistinguishable from an unbuilt one.)
// Apply and Exec may assume the test was admitted (Admit) and came from
// their spec, and may panic otherwise: the Replayer reports that as the
// test's error.
type Kernel interface {
	// Name identifies the implementation, as its spec registers it
	// ("linux", "sv6", "memvm", ...).
	Name() string
	// Memory returns the kernel's traced memory, through whose snapshot
	// journal the Replayer rolls the kernel back.
	Memory() *mtrace.Memory
	// Apply initializes kernel state from a setup (untraced).
	Apply(s Setup)
	// Exec performs one system call on the given simulated core.
	Exec(core int, c Call) Result
}

// CheckResult reports one test case's conflict-freedom on a kernel.
type CheckResult struct {
	Test TestCase
	// ConflictFree is the MTRACE verdict.
	ConflictFree bool
	// Conflicts lists the shared cells when not conflict-free.
	Conflicts []mtrace.Conflict
	// Res holds the results of the two calls (first order).
	Res [2]Result
	// Commuted reports whether running the calls in the opposite order
	// (from the same initial state) produced the same pair of results — a
	// sanity check that the generated test really is commutative on this
	// implementation.
	Commuted bool
	// ResSwapped holds the opposite-order results.
	ResSwapped [2]Result
}
