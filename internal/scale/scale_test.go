package scale

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/mtrace"
)

func TestSharedCounterConflicts(t *testing.T) {
	mem := mtrace.NewMemory()
	c := NewSharedCounter(mem, "n", 0)
	mem.Start()
	c.Inc(0, 1)
	c.Inc(1, 1)
	mem.Stop()
	if mem.ConflictFree() {
		t.Error("shared counter increments from two cores must conflict")
	}
	if c.Peek() != 2 {
		t.Errorf("value = %d", c.Peek())
	}
}

func TestRefcacheIncConflictFree(t *testing.T) {
	mem := mtrace.NewMemory()
	r := NewRefcache(mem, "nlink", 5)
	mem.Start()
	r.Inc(0, 1)
	r.Inc(1, -1)
	mem.Stop()
	if !mem.ConflictFree() {
		t.Errorf("per-core deltas must not conflict: %v", mem.Conflicts())
	}
	if r.Peek() != 5 {
		t.Errorf("reconciled value = %d, want 5", r.Peek())
	}
}

func TestRefcacheReadConflictsWithWriter(t *testing.T) {
	mem := mtrace.NewMemory()
	r := NewRefcache(mem, "nlink", 0)
	mem.Start()
	r.Inc(0, 1)
	_ = r.Read(1)
	mem.Stop()
	if mem.ConflictFree() {
		t.Error("reconciling read must conflict with a concurrent increment")
	}
}

func TestIDAllocDisjointAndUnique(t *testing.T) {
	mem := mtrace.NewMemory()
	a := NewIDAlloc(mem, "ino", 1)
	mem.Start()
	x := a.Alloc(0)
	y := a.Alloc(1)
	mem.Stop()
	if !mem.ConflictFree() {
		t.Errorf("per-core allocation must not conflict: %v", mem.Conflicts())
	}
	if x == y {
		t.Error("ids collide across cores")
	}
	if z := a.Alloc(0); z == x {
		t.Error("ids reused within a core")
	}
}

func TestSpinLockTracksHolder(t *testing.T) {
	mem := mtrace.NewMemory()
	l := NewSpinLock(mem, "l")
	l.Acquire(0)
	l.Release(0)
	defer func() {
		if recover() == nil {
			t.Error("double release must panic")
		}
	}()
	l.Release(0)
}

func TestHashDirBasics(t *testing.T) {
	mem := mtrace.NewMemory()
	d := NewHashDir(mem, "dir", 64)
	if !d.Insert(0, 1, 100) {
		t.Fatal("insert failed")
	}
	if d.Insert(0, 1, 200) {
		t.Error("duplicate insert succeeded")
	}
	if ino, ok := d.Lookup(0, 1); !ok || ino != 100 {
		t.Errorf("lookup = %d,%v", ino, ok)
	}
	if !d.Exists(0, 1) || d.Exists(0, 2) {
		t.Error("Exists wrong")
	}
	if old := d.Replace(0, 1, 300); old != 100 {
		t.Errorf("Replace returned %d", old)
	}
	if ino, ok := d.Remove(0, 1); !ok || ino != 300 {
		t.Errorf("Remove = %d,%v", ino, ok)
	}
	if _, ok := d.Remove(0, 1); ok {
		t.Error("second Remove succeeded")
	}
}

func TestHashDirDistinctNamesConflictFree(t *testing.T) {
	mem := mtrace.NewMemory()
	d := NewHashDir(mem, "dir", 1024)
	mem.Start()
	d.Insert(0, 1, 100)
	d.Insert(1, 2, 200)
	mem.Stop()
	if !mem.ConflictFree() {
		t.Errorf("distinct-name inserts should land in distinct buckets: %v", mem.Conflicts())
	}
}

func TestRadixDisjointKeysConflictFree(t *testing.T) {
	mem := mtrace.NewMemory()
	r := NewRadix(mem, "pages", 16)
	r.Poke(0, 1) // pre-populate the interior node
	r.Poke(1, 1)
	mem.Start()
	r.Set(0, 0, 5)
	_ = r.Get(1, 1)
	mem.Stop()
	if !mem.ConflictFree() {
		t.Errorf("disjoint radix keys should not conflict: %v", mem.Conflicts())
	}
	if r.Get(0, 0) != 5 {
		t.Error("radix lost a value")
	}
}

func TestRealSharedVsRefcacheSemantics(t *testing.T) {
	var sc RealSharedCounter
	rc := NewRealRefcache(8, 10)
	var wg sync.WaitGroup
	for slot := 0; slot < 8; slot++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				sc.Inc(1)
				rc.Inc(s, 1)
			}
		}(slot)
	}
	wg.Wait()
	if sc.Read() != 8000 {
		t.Errorf("shared = %d", sc.Read())
	}
	if rc.Read() != 8010 {
		t.Errorf("refcache = %d", rc.Read())
	}
}

func TestRealIDAllocUniqueUnderConcurrency(t *testing.T) {
	a := NewRealIDAlloc(8)
	var mu sync.Mutex
	seen := map[int64]bool{}
	var wg sync.WaitGroup
	for slot := 0; slot < 8; slot++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			local := make([]int64, 0, 500)
			for i := 0; i < 500; i++ {
				local = append(local, a.Alloc(s))
			}
			mu.Lock()
			defer mu.Unlock()
			for _, id := range local {
				if seen[id] {
					t.Errorf("duplicate id %d", id)
				}
				seen[id] = true
			}
		}(slot)
	}
	wg.Wait()
}

func TestRealLowestFDRule(t *testing.T) {
	tbl := NewRealLowestFD(4)
	if fd := tbl.Alloc(); fd != 0 {
		t.Errorf("first = %d", fd)
	}
	if fd := tbl.Alloc(); fd != 1 {
		t.Errorf("second = %d", fd)
	}
	tbl.Free(0)
	if fd := tbl.Alloc(); fd != 0 {
		t.Errorf("after free = %d, want lowest", fd)
	}
	tbl.Alloc()
	tbl.Alloc()
	if fd := tbl.Alloc(); fd != -1 {
		t.Errorf("full table = %d, want -1", fd)
	}
}

// Property: Refcache and a plain sum agree for any increment pattern.
func TestQuickRefcacheAgreesWithSum(t *testing.T) {
	f := func(deltas []int8) bool {
		mem := mtrace.NewMemory()
		r := NewRefcache(mem, "x", 0)
		var want int64
		for i, d := range deltas {
			r.Inc(i%NCores, int64(d))
			want += int64(d)
		}
		return r.Peek() == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: HashDir behaves like a map for sequential ops.
func TestQuickHashDirMatchesMap(t *testing.T) {
	f := func(ops []uint16) bool {
		mem := mtrace.NewMemory()
		d := NewHashDir(mem, "dir", 64)
		ref := map[int64]int64{}
		for _, o := range ops {
			name := int64(o % 16)
			val := int64(o%7) + 1
			switch (o / 16) % 3 {
			case 0: // insert
				ok := d.Insert(0, name, val)
				_, had := ref[name]
				if ok == had {
					return false
				}
				if ok {
					ref[name] = val
				}
			case 1: // remove
				got, ok := d.Remove(0, name)
				want, had := ref[name]
				if ok != had || (ok && got != want) {
					return false
				}
				delete(ref, name)
			default: // lookup
				got, ok := d.Lookup(0, name)
				want, had := ref[name]
				if ok != had || (ok && got != want) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// touchAll selects every bucket of d once, so that d is the directory the
// eager constructor used to build: the reference the on-demand buckets are
// held to below.
func (d *HashDir) touchAll() {
	for name := int64(0); uint64(len(d.buckets)) < d.nbuckets; name++ {
		d.bucket(name)
	}
}

// dirOp is one randomly drawn directory operation.
type dirOp struct{ Kind, Core, Name, Inum uint8 }

// tracedRun is everything an observer of one traced region can see.
type tracedRun struct {
	results   []int64
	conflicts []mtrace.Conflict
	log       []string
}

func runDirOps(mem *mtrace.Memory, d *HashDir, ops []dirOp) tracedRun {
	var out tracedRun
	b2i := func(b bool) int64 {
		if b {
			return 1
		}
		return 0
	}
	mem.Start()
	for _, o := range ops {
		core, name, inum := int(o.Core%2), int64(o.Name%12), int64(o.Inum%5)+1
		switch o.Kind % 5 {
		case 0:
			ino, ok := d.Lookup(core, name)
			out.results = append(out.results, ino, b2i(ok))
		case 1:
			out.results = append(out.results, b2i(d.Exists(core, name)))
		case 2:
			out.results = append(out.results, b2i(d.Insert(core, name, inum)))
		case 3:
			ino, ok := d.Remove(core, name)
			out.results = append(out.results, ino, b2i(ok))
		case 4:
			out.results = append(out.results, d.Replace(core, name, inum))
		}
	}
	mem.Stop()
	out.conflicts = mem.Conflicts()
	for _, a := range mem.Accesses() {
		out.log = append(out.log, fmt.Sprintf("%s core=%d write=%v", a.Cell.Name(), a.Core, a.Write))
	}
	return out
}

// Property: a bucket is created by the first operation that selects it,
// and nobody can tell. A lazy directory and one whose every bucket existed
// beforehand give equal results, equal conflict reports and equal ordered
// access logs for random two-core sequences — run the way the CHECK
// replayer runs a kernel: setup poked inside a baseline snapshot region (so
// buckets are first touched inside a region), each sequence traced, reset
// and replayed, then everything rolled back and the sequence run once more
// against the pristine directory.
func TestQuickLazyHashDirMatchesPretouched(t *testing.T) {
	f := func(setup, ops []dirOp) bool {
		var runs [2][3]tracedRun
		for i, pretouch := range []bool{false, true} {
			mem := mtrace.NewMemory()
			mem.LogAccesses(true)
			// 8 buckets for 12 names: some share a bucket.
			d := NewHashDir(mem, "dir", 8)
			if pretouch {
				d.touchAll()
			}
			mem.Snapshot()
			for _, o := range setup {
				d.PokeInsert(int64(o.Name%12), int64(o.Inum%5)+1)
			}
			mem.Snapshot()
			runs[i][0] = runDirOps(mem, d, ops)
			mem.Reset()
			runs[i][1] = runDirOps(mem, d, ops)
			mem.Reset()
			mem.Pop()
			mem.Reset()
			runs[i][2] = runDirOps(mem, d, ops)
		}
		lazy, eager := runs[0], runs[1]
		if !reflect.DeepEqual(lazy, eager) {
			t.Logf("lazy  %+v\neager %+v", lazy, eager)
			return false
		}
		// And a reset really is a reset: the replay repeats the first run.
		return reflect.DeepEqual(lazy[0], lazy[1])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
