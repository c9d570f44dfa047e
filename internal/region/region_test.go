package region

import "testing"

// TestSlabReusesChunksZeroed: after a Rewind a slab hands out the very
// storage it handed out before, zeroed, and allocates nothing while the
// requests stay within what it held; a run has capacity exactly its
// length, so an append to it leaves the next run alone; and a request
// larger than any chunk gets one of its own.
func TestSlabReusesChunksZeroed(t *testing.T) {
	var s Slab[[4]int]
	first := s.New()
	first[0] = 7
	run := s.Take(3)
	run[2][1] = 9
	big := s.Take(5000)
	if cap(run) != 3 || len(big) != 5000 {
		t.Fatalf("Take(3) has capacity %d, Take(5000) length %d", cap(run), len(big))
	}
	next := s.New()
	_ = append(run, [4]int{1})
	if next[0] != 0 {
		t.Fatal("appending to a run wrote into the value after it")
	}
	s.Rewind()
	if again := s.New(); again != first || *again != [4]int{} {
		t.Fatalf("after Rewind: %p holding %v, first value was %p", again, *again, first)
	}
	if n := testing.AllocsPerRun(10, func() {
		s.Rewind()
		s.New()
		s.Take(3)
		s.Take(5000)
		s.New()
	}); n != 0 {
		t.Errorf("the same requests after a Rewind: %v allocations, want 0", n)
	}
}

// TestAppendGrowsInTheSlab: Append keeps the list's elements in order as it
// moves the list to ever larger runs of the slab.
func TestAppendGrowsInTheSlab(t *testing.T) {
	var s Slab[int]
	var list []int
	for i := range 100 {
		list = Append(&s, list, i)
	}
	for i, v := range list {
		if v != i {
			t.Fatalf("list[%d] = %d", i, v)
		}
	}
	if n := testing.AllocsPerRun(10, func() {
		s.Rewind()
		var l []int
		for i := range 100 {
			l = Append(&s, l, i)
		}
	}); n != 0 {
		t.Errorf("growing the same list after a Rewind: %v allocations, want 0", n)
	}
}
