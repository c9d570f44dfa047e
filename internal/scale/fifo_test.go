package scale

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/mtrace"
)

// TestFIFOAccesses pins the one queue's cells and its loads and stores in
// order — what sv6 pipes, memq and the mail sockets all report — and that
// a send and a receive of a non-empty queue share no cell.
func TestFIFOAccesses(t *testing.T) {
	mem := mtrace.NewMemory()
	mem.LogAccesses(true)
	q := NewFIFO(mem, "q")
	q.Seed([]int64{7})
	trace := func(ops func()) []string {
		mem.Start()
		ops()
		mem.Stop()
		var out []string
		for _, a := range mem.Accesses() {
			out = append(out, fmt.Sprintf("%d %s %v", a.Core, a.Cell.Name(), a.Write))
		}
		return out
	}
	got := trace(func() {
		if seq := q.Send(0, 8); seq != 1 {
			t.Errorf("send's sequence number %d, want 1", seq)
		}
		if seq, v, ok := q.Recv(1); seq != 0 || v != 7 || !ok {
			t.Errorf("recv = %d, %d, %v; want the seeded 7 at 0", seq, v, ok)
		}
	})
	want := []string{
		"0 q.tail false", "0 q.item[1] true", "0 q.full[1] true", "0 q.tail true",
		"1 q.head false", "1 q.full[0] false", "1 q.item[0] false", "1 q.full[0] true", "1 q.head true",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("send||recv accesses\n %v\nwant\n %v", got, want)
	}
	if !mem.ConflictFree() {
		t.Errorf("send||recv of a non-empty queue conflicts: %v", mem.Conflicts())
	}
	got = trace(func() {
		if n := q.Len(0); n != 1 {
			t.Errorf("Len = %d, want 1", n)
		}
		q.Recv(0)
		if _, _, ok := q.Recv(0); ok {
			t.Error("recv of an empty queue succeeded")
		}
	})
	if want := []string{"0 q.tail false", "0 q.head false"}; !reflect.DeepEqual(got[:2], want) {
		t.Errorf("Len reads %v, want %v", got[:2], want)
	}
}
