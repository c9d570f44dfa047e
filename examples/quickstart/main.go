// Quickstart walks the scalable commutativity rule end to end on §3.6's
// put/max interface, then runs one COMMUTER analysis of a POSIX pair.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"repro/commuter"
)

func main() {
	fmt.Println("== The scalable commutativity rule on put/max (§3.6) ==")

	// The history H = [put(2)] || [put(1), put(1), max()=2]: after put(2),
	// the two puts and the max all commute (max already returns 2 in any
	// order of the region).
	x := History{{Thread: 0, Class: "put", Args: []int64{2}, Ret: []int64{0}}}
	y := History{
		{Thread: 0, Class: "put", Args: []int64{1}, Ret: []int64{0}},
		{Thread: 1, Class: "put", Args: []int64{1}, Ret: []int64{0}},
		{Thread: 2, Class: "max", Ret: []int64{2}},
	}

	// Observers: max() with any plausible return distinguishes states.
	var maxes []Op
	for v := int64(0); v <= 3; v++ {
		maxes = append(maxes, Op{Thread: 9, Class: "max", Ret: []int64{v}})
	}
	obs := ObserverUniverse(maxes, 1)
	spec := RefSpec{New: NewPutMax}

	fmt.Printf("region SIM-commutes after put(2): %v\n",
		SIMCommutes(spec, x, y, obs))

	// The rule says a conflict-free implementation of the region exists.
	// Build the paper's Figure 2 construction and trace the region on the
	// mtrace memory its components live on, as CHECK traces a test.
	m := NewScalable(x, y, NewPutMax)
	for i, o := range x.Concat(y) {
		if i == len(x) {
			m.Memory().Start()
		}
		ret := m.Invoke(o.Thread, o.Class, o.Args)
		fmt.Printf("  %v -> %v\n", o, ret)
	}
	m.Memory().Stop()
	fmt.Printf("conflicts inside the commutative region: %v (empty = scales)\n\n", m.Memory().Conflicts())

	fmt.Println("== COMMUTER on a POSIX pair: open x open ==")
	ctx := context.Background()
	cli := commuter.Local()
	defer cli.Close()
	pair, err := cli.Analyze(ctx, "open", "open")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(pair.Summary())

	ts, err := cli.GenerateTests(ctx, "open", "open", commuter.WithTestsPerPath(2))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("generated %d concrete commutative test cases\n", len(ts.Tests))

	linux, err := cli.Check(ctx, "linux", ts.Tests)
	if err != nil {
		log.Fatal(err)
	}
	sv6, err := cli.Check(ctx, "sv6", ts.Tests)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("not conflict-free: linux %d/%d, sv6 %d/%d\n",
		linux.Conflicts, linux.Total, sv6.Conflicts, sv6.Total)
	fmt.Println("(the rule: every one of these commutative tests *could* be conflict-free)")
}
