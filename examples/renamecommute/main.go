// Renamecommute reproduces §5.1's worked example: the commutativity
// conditions of two rename calls, the concrete test cases TESTGEN derives
// (the paper's Figure 5 shows one), and both kernels' conflict verdicts.
//
//	go run ./examples/renamecommute
package main

import (
	"context"
	"fmt"
	"log"
	"strings"

	"repro/commuter"
)

func main() {
	ctx := context.Background()
	cli := commuter.Local()
	defer cli.Close()

	fmt.Println("== rename(a,b) x rename(c,d) (§5.1, Figure 4 model) ==")
	pair, err := cli.Analyze(ctx, "rename", "rename")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(pair.Summary())
	fmt.Println()

	// The paper lists six classes of commutative situations; spot-check
	// the headline one with concrete tests.
	ts, err := cli.GenerateTests(ctx, "rename", "rename", commuter.WithTestsPerPath(3))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("TESTGEN produced %d test cases; a sample with kernel verdicts:\n\n", len(ts.Tests))

	sample := ts.Tests[:min(6, len(ts.Tests))]
	kernels := []string{"linux", "sv6"}
	verdicts := map[string][]commuter.TestVerdict{}
	for _, k := range kernels {
		sum, err := cli.Check(ctx, k, sample)
		if err != nil {
			log.Fatal(err)
		}
		verdicts[k] = sum.Verdicts
	}
	for i, tc := range sample {
		fmt.Printf("%s\n", tc.ID)
		for _, f := range tc.Setup.Files {
			fmt.Printf("   setup: %s -> inode %d\n", f.Name, f.Inum)
		}
		fmt.Printf("   op0: %v\n   op1: %v\n", tc.Calls[0], tc.Calls[1])
		for _, k := range kernels {
			if v := verdicts[k][i]; v.ConflictFree {
				fmt.Printf("   %-5s: conflict-free\n", k)
			} else {
				fmt.Printf("   %-5s: conflicts on %s\n", k, strings.Join(v.Conflicts, ", "))
			}
		}
		fmt.Println()
	}
	fmt.Println("Linux's directory lock serializes every rename; sv6's per-bucket")
	fmt.Println("hash directory keeps renames of unrelated names conflict-free.")
}
