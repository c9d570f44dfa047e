package spec_test

import (
	"strings"
	"testing"

	"repro/internal/kvspec"
	"repro/internal/model"
	"repro/internal/queuespec"
	"repro/internal/spec"
	"repro/internal/vmspec"
)

// TestRegisteredSpecs pins the four shipped registrations, and that the
// unknown-spec error (the text `commuter analyze -spec bogus` prints, and
// the names GET /v1/specs serves) lists every one of them.
func TestRegisteredSpecs(t *testing.T) {
	names := spec.Names()
	want := map[string]bool{"posix": false, "queue": false, "vm": false, "kv": false}
	for _, n := range names {
		if _, ok := want[n]; ok {
			want[n] = true
		}
	}
	for n, seen := range want {
		if !seen {
			t.Errorf("spec %q not registered (have %v)", n, names)
		}
	}
	for n := range want {
		if _, err := spec.Lookup(n); err != nil {
			t.Errorf("Lookup(%s): %v", n, err)
		}
	}
	if _, err := spec.Lookup("nope"); err == nil {
		t.Error("Lookup(nope) did not error")
	} else {
		for n := range want {
			if !strings.Contains(err.Error(), n) {
				t.Errorf("Lookup(nope) error %q does not list spec %q", err, n)
			}
		}
	}
}

// TestSpecNamedSubsets pins that every registered spec exposes named op
// subsets whose members resolve within the spec — the discoverability
// contract behind /v1/specs and the -ops flag help.
func TestSpecNamedSubsets(t *testing.T) {
	for _, sp := range []spec.Spec{model.Spec, queuespec.Spec, vmspec.Spec, kvspec.Spec} {
		sets := sp.Sets()
		if len(sets) == 0 {
			t.Errorf("%s: no named op subsets", sp.Name())
		}
		for name, members := range sets {
			if len(members) == 0 {
				t.Errorf("%s: subset %q is empty", sp.Name(), name)
			}
			for _, opName := range members {
				if _, err := spec.OpByName(sp, opName); err != nil {
					t.Errorf("%s: subset %q member %s: %v", sp.Name(), name, opName, err)
				}
			}
		}
		if ds := sp.DefaultSet(); ds != "all" {
			if _, ok := sets[ds]; !ok {
				t.Errorf("%s: default set %q not in Sets()", sp.Name(), ds)
			}
		}
	}
}

// TestOpByNameRoundTrip pins that every op of every shipped spec resolves
// back to itself by name, and that unknown names produce an error listing
// the full op universe (the nil-deref fix: lookups now fail loudly with
// guidance instead of returning nil).
func TestOpByNameRoundTrip(t *testing.T) {
	for _, sp := range []spec.Spec{model.Spec, queuespec.Spec, vmspec.Spec, kvspec.Spec} {
		ops := sp.Ops()
		if len(ops) == 0 {
			t.Fatalf("%s: no ops", sp.Name())
		}
		for _, op := range ops {
			got, err := spec.OpByName(sp, op.Name)
			if err != nil {
				t.Errorf("%s: OpByName(%s): %v", sp.Name(), op.Name, err)
				continue
			}
			if got.Name != op.Name {
				t.Errorf("%s: OpByName(%s) returned %s", sp.Name(), op.Name, got.Name)
			}
		}
		_, err := spec.OpByName(sp, "renme")
		if err == nil {
			t.Fatalf("%s: OpByName(renme) did not error", sp.Name())
		}
		for _, op := range ops {
			if !strings.Contains(err.Error(), op.Name) {
				t.Errorf("%s: unknown-op error %q does not list %s", sp.Name(), err, op.Name)
			}
		}
	}
}

// TestOpSetSelectors pins the universe selectors: "all", the spec-named
// subsets, comma lists with dedupe, and the error path.
func TestOpSetSelectors(t *testing.T) {
	if ops, err := spec.OpSet(model.Spec, "all"); err != nil || len(ops) != 18 {
		t.Errorf(`posix "all" = %d ops, err %v; want 18`, len(ops), err)
	}
	if ops, err := spec.OpSet(model.Spec, "fs"); err != nil || len(ops) != 9 {
		t.Errorf(`posix "fs" = %d ops, err %v; want 9`, len(ops), err)
	}
	if ops, err := spec.OpSet(queuespec.Spec, "all"); err != nil || len(ops) != 5 {
		t.Errorf(`queue "all" = %d ops, err %v; want 5`, len(ops), err)
	}
	if ops, err := spec.OpSet(queuespec.Spec, "ordered"); err != nil || len(ops) != 3 {
		t.Errorf(`queue "ordered" = %d ops, err %v; want 3`, len(ops), err)
	}
	if ops, err := spec.OpSet(vmspec.Spec, "all"); err != nil || len(ops) != 5 {
		t.Errorf(`vm "all" = %d ops, err %v; want 5`, len(ops), err)
	}
	if ops, err := spec.OpSet(vmspec.Spec, "mem"); err != nil || len(ops) != 2 {
		t.Errorf(`vm "mem" = %d ops, err %v; want 2`, len(ops), err)
	}
	if ops, err := spec.OpSet(kvspec.Spec, "all"); err != nil || len(ops) != 4 {
		t.Errorf(`kv "all" = %d ops, err %v; want 4`, len(ops), err)
	}
	if ops, err := spec.OpSet(kvspec.Spec, "point"); err != nil || len(ops) != 3 {
		t.Errorf(`kv "point" = %d ops, err %v; want 3`, len(ops), err)
	}
	ops, err := spec.OpSet(model.Spec, "open, rename ,open")
	if err != nil || len(ops) != 2 || ops[0].Name != "open" || ops[1].Name != "rename" {
		t.Errorf("comma list resolved to %v, err %v", ops, err)
	}
	if _, err := spec.OpSet(model.Spec, "open,nope"); err == nil {
		t.Error("unknown comma-list op did not error")
	}
}

// TestOpTablesBuiltOnce pins that a spec's op table is package-level: every
// Ops call — and every lookup through it — hands out the same *Op values,
// so resolving an op by name allocates nothing and ops compare by pointer.
func TestOpTablesBuiltOnce(t *testing.T) {
	for _, name := range spec.Names() {
		sp, err := spec.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		first, again := sp.Ops(), sp.Ops()
		if len(first) == 0 || len(first) != len(again) {
			t.Fatalf("%s: Ops returned %d then %d ops", name, len(first), len(again))
		}
		for i, op := range first {
			if op != again[i] {
				t.Errorf("%s: op %s rebuilt between Ops calls", name, op.Name)
			}
			if byName, err := spec.OpByName(sp, op.Name); err != nil || byName != op {
				t.Errorf("%s: OpByName(%s) = %p, %v; want the table's %p", name, op.Name, byName, err, op)
			}
		}
	}
}

// TestImplSet pins the implementation selector: no names means every
// binding in default order, a repeated name counts once (a matrix cell must
// not double), and an unknown name errors with the ones the spec has.
func TestImplSet(t *testing.T) {
	names := func(impls []spec.Impl) string {
		var out []string
		for _, im := range impls {
			out = append(out, im.Name)
		}
		return strings.Join(out, ",")
	}
	for _, tc := range []struct {
		sel  []string
		want string
	}{
		{nil, "linux,sv6"},
		{[]string{"sv6"}, "sv6"},
		{[]string{"sv6", "linux", "sv6"}, "sv6,linux"},
	} {
		impls, err := spec.ImplSet(model.Spec, tc.sel...)
		if err != nil || names(impls) != tc.want {
			t.Errorf("ImplSet(%v) = %s, %v; want %s", tc.sel, names(impls), err, tc.want)
		}
	}
	if _, err := spec.ImplSet(model.Spec, "sv7"); err == nil || !strings.Contains(err.Error(), "(known: linux, sv6)") {
		t.Errorf("ImplSet(sv7) = %v, want an error listing linux and sv6", err)
	}
}
