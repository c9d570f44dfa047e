// Package region allocates objects that die together from chunks that are
// kept for reuse: region-based memory management (Tofte and Talpin, 1997)
// at the boundary where a sweep worker forgets one pair and starts the
// next. A Slab grows to the high-water mark of what one region needed and
// then hands the same storage out again after every Rewind, so the garbage
// collector sees a few long-lived chunks instead of every node, dictionary
// and state of every pair.
package region

import "unsafe"

// A slab's first chunk holds about firstBytes, and each later one twice
// its predecessor, up to maxBytes: a slab that serves a small spec's pairs
// stays small, and one that outgrows its high-water mark overshoots it by
// at most one small chunk (with 64 KB chunks a cold sweep's peak RSS was
// ~0.9 MB higher).
const firstBytes, maxBytes = 256, 8 << 10

// Slab hands out zeroed values of T, alone or in contiguous runs, from
// chunks it keeps. Rewind makes every chunk free again; a value taken
// before it must not be used after the slab hands its storage out again.
// A Slab is not safe for concurrent use; its zero value is empty.
type Slab[T any] struct {
	chunks [][]T
	i, j   int // the chunk in use and its first free slot
}

// New returns a pointer to a zero T.
func (s *Slab[T]) New() *T { return &s.Take(1)[0] }

// Take returns n contiguous zero values of T, with capacity n: an append to
// the run reallocates instead of running into the slab's next value.
func (s *Slab[T]) Take(n int) []T {
	for ; s.i < len(s.chunks); s.i, s.j = s.i+1, 0 {
		if c := s.chunks[s.i]; len(c)-s.j >= n {
			run := c[s.j : s.j+n : s.j+n]
			s.j += n
			clear(run)
			return run
		}
	}
	var zero T
	size := max(1, int(unsafe.Sizeof(zero)))
	grow := firstBytes / size
	if k := len(s.chunks); k > 0 {
		grow = min(2*len(s.chunks[k-1]), maxBytes/size)
	}
	c := make([]T, max(n, grow))
	s.chunks = append(s.chunks, c)
	s.j = n
	return c[:n:n]
}

// Append is append(list, v) with list's storage taken from s: a full list
// moves to a run of twice its capacity, and its old run stays taken until
// the slab rewinds.
func Append[T any](s *Slab[T], list []T, v T) []T {
	if len(list) == cap(list) {
		list = append(s.Take(max(4, 2*cap(list)))[:0], list...)
	}
	return append(list, v)
}

// Rewind makes every value the slab has handed out free again, keeping
// the chunks.
func (s *Slab[T]) Rewind() { s.i, s.j = 0, 0 }
