package mtrace

// Map is a map an implementation keeps beside its cells, traced the way a
// table in memory is: each key has a presence cell, and a lookup loads it
// whether or not the key is present. A call that finds a key absent thus
// reads the line a call binding it writes, and the two conflict, as a probe
// of an empty slot would on real hardware.
//
// A key gets its entry at its first touch, traced or not, and keeps it for
// the Memory's life: a presence cell named name[k], born 0, and a value.
// Set and Delete store the presence cell, journaled like any cell, and
// Set's value is recorded in the map's own log, which Reset reaches through
// the memory's hook list. A Reset therefore returns every key to the state
// the region found it in, and a Set in a warm region allocates nothing.
type Map[K comparable, V any] struct {
	mem     *Memory
	name    string
	entries map[K]*mapEntry[V]
	log     []mapRecord[V]
}

type mapEntry[V any] struct {
	present *Cell
	v       V
}

// A mapRecord is the value a Set replaced.
type mapRecord[V any] struct {
	e *mapEntry[V]
	v V
}

// NewMap returns an empty traced map whose presence cells are named
// name[k].
func NewMap[K comparable, V any](mem *Memory, name string) *Map[K, V] {
	return &Map[K, V]{mem: mem, name: name, entries: map[K]*mapEntry[V]{}}
}

// entry returns k's entry, building it, untraced, at k's first touch.
func (m *Map[K, V]) entry(k K) *mapEntry[V] {
	e, ok := m.entries[k]
	if !ok {
		e = &mapEntry[V]{present: m.mem.NewCellf(0, "%s[%v]", m.name, k)}
		m.entries[k] = e
	}
	return e
}

// Get loads k's presence cell from core and returns k's value and whether
// k is present; an absent key's value is V's zero.
func (m *Map[K, V]) Get(core int, k K) (V, bool) {
	e := m.entry(k)
	if e.present.Load(core) == 0 {
		var zero V
		return zero, false
	}
	return e.v, true
}

// Set binds k to v, storing k's presence cell from core.
func (m *Map[K, V]) Set(core int, k K, v V) {
	e := m.entry(k)
	if len(m.mem.marks) != 0 {
		m.log = append(m.log, mapRecord[V]{e, e.v})
		m.mem.onReset(m)
	}
	e.v = v
	e.present.Store(core, 1)
}

// Delete makes k absent, storing its presence cell from core.
func (m *Map[K, V]) Delete(core int, k K) { m.entry(k).present.Store(core, 0) }

// Poke binds k to v without tracing, for setup (Apply). The presence cell
// is poked, so a Reset makes k absent again, but the value is not recorded:
// it stays k's, absent, and the next setup reaches through Peek what the
// last one built for k.
func (m *Map[K, V]) Poke(k K, v V) {
	e := m.entry(k)
	e.v = v
	e.present.Poke(1)
}

// Peek returns k's value without tracing, present or not: an absent key's
// value is the one it last held.
func (m *Map[K, V]) Peek(k K) V { return m.entry(k).v }

// undo reverts the newest Set the log holds.
func (m *Map[K, V]) undo() {
	r := &m.log[len(m.log)-1]
	r.e.v = r.v
	*r = mapRecord[V]{}
	m.log = m.log[:len(m.log)-1]
}
