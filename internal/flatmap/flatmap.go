// Package flatmap provides the open-addressed uint64-keyed hash table
// shared by the simulator's flat line-metadata stores (per-core history,
// golden/DRAM version tables) and R-NUCA's page table. It exists so the
// probing, insertion and growth logic lives exactly once: the callers'
// previous hand-rolled copies had already drifted into two different
// index-derivation conventions.
//
// Layout and conventions:
//   - linear probing over a power-of-two slot array, grown at 3/4 load;
//   - fibonacci hashing (high bits of key * 2^64/φ) for near-sequential
//     keys such as line and page indexes;
//   - key 0 is the empty-slot sentinel — callers key by index+1 (see
//     mem.LineKey) so real keys are never zero;
//   - key and value share a slot, so a lookup touches one cache line;
//   - no deletion (none of the backed stores ever remove entries);
//   - an Occupancy bitmap makes Clear, CopyFrom and ForEach cost what the
//     table holds, not its capacity.
package flatmap

import "math/bits"

type slot[V any] struct {
	key uint64
	val V
}

// Table is an open-addressed uint64 → V hash table. The zero value is not
// usable; construct with New.
type Table[V any] struct {
	slots []slot[V]
	occ   Occupancy // blocks of slots that may hold a key
	mask  uint64
	shift uint
	live  int
}

// New returns a table with the given initial capacity (rounded up to a
// power of two, minimum 8).
func New[V any](capacity int) *Table[V] {
	t := &Table[V]{}
	n := 8
	for n < capacity {
		n *= 2
	}
	t.alloc(n)
	return t
}

func (t *Table[V]) alloc(capacity int) {
	t.slots = make([]slot[V], capacity)
	t.occ = NewOccupancy(capacity)
	t.mask = uint64(capacity - 1)
	t.shift = uint(64 - bits.TrailingZeros(uint(capacity)))
	t.live = 0
}

func (t *Table[V]) idx(key uint64) uint64 {
	return (key * 0x9E3779B97F4A7C15) >> t.shift
}

// Len returns the number of stored keys.
func (t *Table[V]) Len() int { return t.live }

// Get returns key's value and whether it is present. Key must be non-zero.
func (t *Table[V]) Get(key uint64) (V, bool) {
	i := t.idx(key)
	for {
		s := &t.slots[i]
		switch s.key {
		case key:
			return s.val, true
		case 0:
			var zero V
			return zero, false
		}
		i = (i + 1) & t.mask
	}
}

// Slot returns a pointer to key's value, inserting a zero value if absent.
// The pointer is valid until the next Slot call (which may grow the
// table). Key must be non-zero.
func (t *Table[V]) Slot(key uint64) *V {
	if (t.live+1)*4 > len(t.slots)*3 {
		t.grow()
	}
	i := t.idx(key)
	for {
		s := &t.slots[i]
		switch s.key {
		case key:
			return &s.val
		case 0:
			s.key = key
			t.live++
			t.occ.Mark(i)
			return &s.val
		}
		i = (i + 1) & t.mask
	}
}

func (t *Table[V]) grow() {
	old := t.slots
	t.alloc(len(old) * 2)
	for i := range old {
		if old[i].key == 0 {
			continue
		}
		j := t.idx(old[i].key)
		for t.slots[j].key != 0 {
			j = (j + 1) & t.mask
		}
		t.slots[j] = old[i]
		t.live++
		t.occ.Mark(j)
	}
}

// Clear removes every stored key, keeping the grown capacity so a reused
// table re-fills without re-growing. Lookups and insertion behave exactly
// as on a fresh table. Only the blocks flagged in occ are wiped, so a
// clear costs what the table held, and clearing an already-empty table is
// free — unconditional clears of rarely-used stores (e.g. the version
// stores with the functional checker off) cost nothing.
func (t *Table[V]) Clear() {
	if t.live == 0 {
		return
	}
	t.occ.ForEach(func(lo, hi int) { clear(t.slots[lo:hi]) })
	t.occ.Reset()
	t.live = 0
}

// CopyFrom makes t an exact copy of src: the same capacity, slot layout,
// keys, values and occupancy bitmap, so every later lookup, insertion and
// growth behaves on t as it would on src. Blocks src has not flagged hold
// only empty slots, so one walk over the blocks either table flags both
// clears t's stale blocks and copies src's: a copy costs what the two
// tables hold, not their capacity. t reallocates only when src has grown
// to a different capacity.
func (t *Table[V]) CopyFrom(src *Table[V]) {
	if len(t.slots) != len(src.slots) {
		t.alloc(len(src.slots))
	}
	t.occ.Union(src.occ)
	t.occ.ForEach(func(lo, hi int) { copy(t.slots[lo:hi], src.slots[lo:hi]) })
	copy(t.occ, src.occ)
	t.live = src.live
}

// ForEach visits every stored (key, value) pair in ascending slot order
// (which is unspecified with respect to the keys).
func (t *Table[V]) ForEach(fn func(key uint64, v V)) {
	t.occ.ForEach(func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if key := t.slots[i].key; key != 0 {
				fn(key, t.slots[i].val)
			}
		}
	})
}

// Occupancy is a "may be occupied" bitmap over a slot array: one bit per
// block of 8 slots, raised when a key lands in the block and lowered only
// by Reset. A clear bit proves every slot of its block is empty, so
// whole-array walks visit only flagged blocks. The directory table in
// internal/sim keeps one over its key array too.
type Occupancy []uint64

// occBlockShift sets the granularity: one bit per 1<<occBlockShift slots.
// Slot arrays have power-of-two lengths of at least 8, so no block is
// partial.
const occBlockShift = 3

// NewOccupancy returns an all-clear bitmap over capacity slots.
func NewOccupancy(capacity int) Occupancy {
	return make(Occupancy, (capacity>>occBlockShift+63)/64)
}

// Mark flags the block holding slot i.
func (o Occupancy) Mark(i uint64) {
	b := i >> occBlockShift
	o[b>>6] |= 1 << (b & 63)
}

// Reset lowers every bit.
func (o Occupancy) Reset() { clear(o) }

// Union raises every bit raised in src, a bitmap of the same length.
func (o Occupancy) Union(src Occupancy) {
	for w, bits := range src {
		o[w] |= bits
	}
}

// ForEach calls fn, in ascending order, with the slot span [lo, hi) of
// every run of adjacent flagged blocks within one bitmap word, so a densely
// occupied array is walked in spans of up to 512 slots rather than block by
// block.
func (o Occupancy) ForEach(fn func(lo, hi int)) {
	for w, word := range o {
		for word != 0 {
			first := bits.TrailingZeros64(word)
			n := bits.TrailingZeros64(^(word >> first)) // run length
			word &^= (1<<n - 1) << first
			lo := w<<6 + first
			fn(lo<<occBlockShift, (lo+n)<<occBlockShift)
		}
	}
}
