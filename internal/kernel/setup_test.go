package kernel_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/kernel"
	"repro/internal/kernel/kerneltest"
)

// refFingerprint is the fmt rendering Setup.Fingerprint had before
// AppendFingerprint, kept as its oracle: every SetupID in
// internal/pins/corpus.digest, and so every TESTGEN cache key, is this
// rendering, byte for byte.
func refFingerprint(s kernel.Setup) string {
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

// fingerprintTable covers every field kind of a Setup, with nil and empty
// Items, nil and empty Pages, negative values, an inode of many pages, and
// every boolean both ways.
var fingerprintTable = []kernel.Setup{
	{},
	{
		Files: []kernel.SetupFile{{Name: kernel.Fname(0), Inum: 1}, {Name: kernel.Fname(17), Inum: -3}, {Name: "", Inum: 0}},
		Inodes: []kernel.SetupInode{
			{Inum: 1, ExtraLinks: 2, Len: 8, Pages: map[int64]int64{7: -1, 0: 5, 3: 12, 1: 0, 6: 9, 2: 4, 5: 3, 4: -7}},
			{Inum: 2, Len: 0, Pages: map[int64]int64{}},
			{Inum: -3, ExtraLinks: -1, Len: -2},
			{Inum: 4, Len: 12, Pages: map[int64]int64{11: 1, 9: 2, 10: 3, 8: 4, 0: 5, 1: 6, 2: 7, 3: 8, 4: 9, 5: 10}},
		},
		FDs: []kernel.SetupFD{
			{Proc: 0, FD: 3, Pipe: true, PipeID: 1, WriteEnd: true},
			{Proc: 1, FD: -1, Pipe: true, PipeID: -2},
			{Proc: 1, FD: 4, Inum: 1, Off: 2},
			{Proc: -1, FD: 0, Inum: -5, Off: -6},
		},
		Pipes: []kernel.SetupPipe{{ID: 1, Items: []int64{3, -4, 5}}, {ID: 2, Items: nil}, {ID: -3, Items: []int64{}}},
		VMAs: []kernel.SetupVMA{
			{Proc: 0, Page: 1, Anon: true, Val: -9, Writable: true},
			{Proc: 1, Page: -2, Inum: 3, Foff: 4},
		},
		Queues: []kernel.SetupQueue{{Core: -1, Items: []int64{1, 2}}, {Core: 0, Items: nil}, {Core: 1, Items: []int64{}}},
		KVs:    []kernel.SetupKV{{Key: 0, Val: -1}, {Key: -2, Val: 3}},
	},
	{Queues: []kernel.SetupQueue{{Core: 2, Items: []int64{-1}}}},
	{KVs: []kernel.SetupKV{{Key: 5, Val: 0}}},
}

// TestAppendFingerprintMatchesFmt holds AppendFingerprint, and Fingerprint
// through it, to the fmt rendering over the table and over every spec's
// random setups, appending after existing bytes as a reused buffer does.
func TestAppendFingerprintMatchesFmt(t *testing.T) {
	check := func(s kernel.Setup) {
		t.Helper()
		want := refFingerprint(s)
		if got := s.Fingerprint(); got != want {
			t.Fatalf("Fingerprint of %+v\n got %q\nwant %q", s, got, want)
		}
		if got := s.AppendFingerprint([]byte("prefix")); string(got) != "prefix"+want {
			t.Fatalf("AppendFingerprint after a prefix of %+v\n got %q\nwant %q", s, got, "prefix"+want)
		}
	}
	for _, s := range fingerprintTable {
		check(s)
	}
	for name, gen := range kerneltest.Gens {
		r := rand.New(rand.NewSource(1))
		for i := 0; i < 500; i++ {
			check(gen.Setup(r))
		}
		t.Logf("%s: 500 random setups", name)
	}
}

// TestFnameMatchesFmt holds Fname's table and its fallback to "f%d".
func TestFnameMatchesFmt(t *testing.T) {
	for _, id := range []int64{-17, -1, 0, 1, 9, 15, 16, 17, 1 << 40} {
		if got, want := kernel.Fname(id), fmt.Sprintf("f%d", id); got != want {
			t.Errorf("Fname(%d) = %q, want %q", id, got, want)
		}
	}
}

// TestSetupClone pins Setup.Clone: the clone equals the original, nil
// fields stay nil and empty ones empty, and writing through the clone's
// slices and maps leaves the original as it was.
func TestSetupClone(t *testing.T) {
	for _, s := range fingerprintTable {
		before := refFingerprint(s)
		c := s.Clone()
		if !reflect.DeepEqual(c, s) { // DeepEqual tells nil from empty
			t.Fatalf("clone %+v\n!= original %+v", c, s)
		}
		for i := range c.Files {
			c.Files[i].Name = "changed"
		}
		for i := range c.Inodes {
			c.Inodes[i].Len++
			for pg := range c.Inodes[i].Pages {
				c.Inodes[i].Pages[pg]++
			}
			if c.Inodes[i].Pages != nil {
				c.Inodes[i].Pages[100] = 1
			}
		}
		for i := range c.FDs {
			c.FDs[i].Off++
		}
		for i := range c.Pipes {
			for j := range c.Pipes[i].Items {
				c.Pipes[i].Items[j]++
			}
		}
		for i := range c.VMAs {
			c.VMAs[i].Val++
		}
		for i := range c.Queues {
			for j := range c.Queues[i].Items {
				c.Queues[i].Items[j]++
			}
		}
		for i := range c.KVs {
			c.KVs[i].Val++
		}
		if after := refFingerprint(s); after != before {
			t.Fatalf("writing through a clone changed the original:\n%s\n-> %s", before, after)
		}
	}
}

// BenchmarkSetupFingerprint renders kerneltest's random posix setups, one
// setup an op, as the TESTGEN leaf does once per materialised model: into
// a reused buffer (append) and as a fresh string (string).
func BenchmarkSetupFingerprint(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	setups := make([]kernel.Setup, 64)
	for i := range setups {
		setups[i] = kerneltest.Gens["posix"].Setup(r)
	}
	b.Run("append", func(b *testing.B) {
		b.ReportAllocs()
		var buf []byte
		for i := 0; i < b.N; i++ {
			buf = setups[i%len(setups)].AppendFingerprint(buf[:0])
		}
	})
	b.Run("string", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = setups[i%len(setups)].Fingerprint()
		}
	})
}
