package model

import (
	"repro/internal/kernel"
	"repro/internal/kernel/unix"
	"repro/internal/spec"
	"repro/internal/symx"
)

// fsOpNames is the fast file-system subset of the op universe (the 9
// metadata and descriptor calls), the CLI's "-ops fs" selection.
var fsOpNames = []string{
	"open", "link", "unlink", "rename", "stat", "fstat", "lseek", "close", "pipe",
}

// posixSpec packages the POSIX model as the registered "posix" spec: the
// 18 Figure 6 operations, the symbolic file-system/VM state, the
// fs-specific mining of a setup from a witness (concretize.go), and the
// two kernel implementations under test.
type posixSpec struct{}

// Spec is the POSIX model as a pluggable pipeline spec.
var Spec spec.Spec = posixSpec{}

func init() { spec.Register(Spec) }

func (posixSpec) Name() string { return "posix" }

func (posixSpec) Ops() []*spec.Op { return ops }

func (posixSpec) Sets() map[string][]string {
	return map[string][]string{"fs": fsOpNames}
}

// DefaultSet keeps the CLI's historical fast default: the fs subset.
func (posixSpec) DefaultSet() string { return "fs" }

func (posixSpec) NewState(c *symx.Context, cfg spec.Config) spec.State {
	return newState(c)
}

// Impls binds the spec to the two kernel implementations the paper
// evaluates: two designs of one kernel, the Linux-3.8-like baseline and
// the sv6-like scalable rebuild.
func (posixSpec) Impls() []spec.Impl {
	return []spec.Impl{
		{Name: "linux", New: func() kernel.Kernel { return unix.New(unix.Linux) }},
		{Name: "sv6", New: func() kernel.Kernel { return unix.New(unix.SV6) }},
	}
}
