package main

import (
	"context"
	"net/http/httptest"
	"os"
	"testing"

	"repro/commuter"
)

// checkMatrixGolden pins one `commuter matrix` rendering byte-for-byte
// against testdata/matrix_<name>.golden through both client bindings: the
// local in-process pipeline and a `commuter serve` loopback (the -server
// flag's path). The two renderings must also match each other exactly —
// the serve binding is pure transport, never a reinterpretation.
func checkMatrixGolden(t *testing.T, name string, opts ...commuter.Option) {
	t.Helper()
	if testing.Short() {
		t.Skip("full matrices in -short mode")
	}
	want, err := os.ReadFile("testdata/matrix_" + name + ".golden")
	if err != nil {
		t.Fatal(err)
	}
	h, err := commuter.NewServerHandler(commuter.Local())
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(h)
	defer srv.Close()
	remote, err := commuter.Dial(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()

	opts = append(opts, commuter.WithTestsPerPath(4))
	render := func(cli commuter.Client) string {
		res, err := cli.Sweep(context.Background(), opts...)
		if err != nil {
			t.Fatal(err)
		}
		got := ""
		for _, m := range commuter.MatricesFromSweep(res) {
			got += commuter.FormatMatrix(m) + "\n"
		}
		return got
	}
	local := render(commuter.Local())
	if local != string(want) {
		t.Errorf("matrix %s rendering changed from golden\ngot:\n%s\nwant:\n%s", name, local, want)
	}
	if served := render(remote); served != local {
		t.Errorf("matrix %s -server diverged from local\nserved:\n%s\nlocal:\n%s", name, served, local)
	}
}

// TestMatrixFSGolden pins `commuter matrix -ops fs` against a golden file
// captured before the spec-layer refactor: the pluggable spec machinery,
// and every engine rewrite since, must be a pure re-plumbing of the POSIX
// pipeline — same tests, same cells, same formatting. `-ops fs -lowestfd`
// is pinned beside it, in testdata/matrix_fs_lowestfd.golden. Refresh
// either only for a deliberate semantic change.
func TestMatrixFSGolden(t *testing.T) {
	checkMatrixGolden(t, "fs", commuter.WithOpSet("fs"))
	checkMatrixGolden(t, "fs_lowestfd", commuter.WithOpSet("fs"), commuter.WithLowestFD(true))
}

// TestMatrixVMKVGolden pins `commuter matrix -spec vm` and `-spec kv`.
// Refresh testdata/matrix_{vm,kv}.golden only for a deliberate semantic
// change to the vm or kv spec, its SetupMiner, or its reference kernel.
func TestMatrixVMKVGolden(t *testing.T) {
	for _, specName := range []string{"vm", "kv"} {
		t.Run(specName, func(t *testing.T) {
			checkMatrixGolden(t, specName, commuter.WithSpec(specName))
		})
	}
}
