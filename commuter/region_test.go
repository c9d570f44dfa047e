package commuter_test

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/commuter"
	"repro/internal/kernel"
	"repro/internal/kernel/kerneltest"
	"repro/internal/sweep"
	"repro/internal/sym"
	"repro/internal/symx"
)

// TestSweepOutputsHoldNoSymbolicWorld: nothing a sweep hands out — the
// sweep's result and each pair's, the streamed updates, TESTGEN's tests —
// can reach a node or a dictionary, whose storage a sweep worker's
// Solver.Forget hands out again at the next pair. The walk is over types:
// struct fields, pointers, slices, arrays and maps, and for kernel.Setup
// the setup type of every spec (kerneltest.Gens draws one of each). Any
// other interface, func or channel fails it, since it could hold anything.
func TestSweepOutputsHoldNoSymbolicWorld(t *testing.T) {
	forbidden := map[reflect.Type]bool{
		reflect.TypeFor[*sym.Expr]():       true,
		reflect.TypeFor[*symx.Dict]():      true,
		reflect.TypeFor[*symx.DictEntry](): true,
		reflect.TypeFor[*symx.Struct]():    true,
	}
	var setups []reflect.Type
	for _, g := range kerneltest.Gens {
		setups = append(setups, reflect.TypeOf(g.Setup(rand.New(rand.NewSource(1)))))
	}
	setupIface := reflect.TypeFor[kernel.Setup]()
	seen := map[reflect.Type]bool{}
	var walk func(ty reflect.Type, path string)
	walk = func(ty reflect.Type, path string) {
		if forbidden[ty] {
			t.Errorf("%s is a %v", path, ty)
			return
		}
		if seen[ty] {
			return
		}
		seen[ty] = true
		switch ty.Kind() {
		case reflect.Pointer, reflect.Slice, reflect.Array:
			walk(ty.Elem(), path+"[]")
		case reflect.Map:
			walk(ty.Key(), path+"{key}")
			walk(ty.Elem(), path+"{}")
		case reflect.Struct:
			for i := range ty.NumField() {
				walk(ty.Field(i).Type, path+"."+ty.Field(i).Name)
			}
		case reflect.Interface:
			if ty != setupIface {
				t.Errorf("%s is an interface, %v, which could hold anything", path, ty)
				return
			}
			for _, s := range setups {
				walk(s, path+"("+s.String()+")")
			}
		case reflect.Func, reflect.Chan, reflect.UnsafePointer:
			t.Errorf("%s is a %v, which could reach anything", path, ty)
		}
	}
	for _, ty := range []reflect.Type{
		reflect.TypeFor[sweep.Result](),
		reflect.TypeFor[sweep.PairResult](),
		reflect.TypeFor[commuter.SweepResult](),
		reflect.TypeFor[commuter.SweepUpdate](),
		reflect.TypeFor[kernel.TestCase](),
	} {
		walk(ty, ty.String())
	}
	if len(setups) < 4 || !seen[reflect.TypeFor[kernel.TestCase]()] {
		t.Fatalf("the walk met %d setup types and TestCase %v", len(setups), seen[reflect.TypeFor[kernel.TestCase]()])
	}
}
