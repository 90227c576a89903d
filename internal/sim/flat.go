package sim

// Flat, allocation-free line-metadata storage for the simulation hot path.
//
// The original core kept every per-line structure in Go maps — the
// directory (map[mem.Addr]*dirEntry per tile), the per-core miss-history
// (map[mem.Addr]uint8) and the golden/DRAM version stores
// (map[mem.Addr]uint64) — plus a freshly allocated sharer list and
// classifier per directory entry. Each data access therefore paid several
// hash-map walks and each new resident line several heap allocations.
//
// This file replaces them with open-addressed tables (linear probing,
// power-of-two capacity, fibonacci hashing of mem.LineKey) whose values
// live inline in the slot array, and with per-table arenas that back every
// directory slot's sharer set and locality classifier. The directory table
// is specialized here (it needs tombstones and the arenas); the plain
// key-value stores share internal/flatmap. The map-based layout survives
// unchanged behind the same accessors as the reference core (newReference),
// which the differential tests replay against the flat core to prove
// bit-identical behavior.

import (
	"fmt"
	"math/bits"

	"lacc/internal/coherence"
	"lacc/internal/core"
	"lacc/internal/flatmap"
	"lacc/internal/mem"
)

// hashKey maps a line key to a table index via fibonacci (multiplicative)
// hashing: line keys are near-sequential, and taking the high bits of the
// product spreads consecutive keys across the table.
func hashKey(key uint64, shift uint) uint64 {
	return (key * 0x9E3779B97F4A7C15) >> shift
}

// Directory key sentinels. A slot's key word is authoritative for its
// state: 0 is a free slot, all-ones a tombstone (removal leaves one so
// probe chains stay intact; tombstones are reclaimed by the next grow) and
// anything else the mem.LineKey of the resident line. Neither sentinel
// collides with a real key: LineKey is index+1 (never 0) of a 48-bit
// address (never 2^64-1).
const (
	dirKeyEmpty = uint64(0)
	dirKeyDead  = ^uint64(0)
)

// dirTable is the flat per-tile directory: an open-addressed table whose
// keys and entries live in parallel arrays — probe chains scan the packed
// 8-byte key array (several slots per hardware cache line) and touch a
// 104-byte dirEntry record only on the final hit, mirroring the cache
// package's packed tag arrays. Each slot owns a fixed p-pointer segment of
// the table's identity arena, handed to the slot's sharer set at insert,
// and a fixed w-slot segment of its classifier arena (w = core.Slots, 0
// for kinds that do not classify), bound to a pristine classifier at
// insert, so a directory entry's whole footprint — entry, sharer
// identities, classifier — is flat arrays with no per-entry allocation.
// Because the key array is authoritative, wholesale clearing only wipes
// keys: entry records and arena segments behind free slots are unreachable
// and re-initialized on insertion. An
// occupancy bitmap over the key array (flatmap.Occupancy, one bit per
// 8-slot block, raised by insert and grow) lets clearAll and forEach skip
// blocks that have held no key since the last clear.
//
// Pointer stability: pointers returned by probe/insert remain valid until
// the next insert (which may grow and relocate the table); remove only
// tombstones a slot and never relocates entries. The protocol layer
// performs at most one insert per transaction (in lookupEntry), before any
// entry pointer is retained.
type dirTable struct {
	keys    []uint64          // dirKeyEmpty, dirKeyDead, or mem.LineKey
	entries []dirEntry        // parallel to keys
	occ     flatmap.Occupancy // blocks of keys that may be non-empty
	arena   []int16           // len(keys) * p sharer identities
	p       int               // sharer pointers per entry
	cls     []core.Slot       // len(keys) * w classifier slots
	w       int               // classifier slots per entry; 0 without one
	cores   int               // the classifiers' core count
	mask    uint64
	shift   uint
	live    int
	dead    int
	// epoch counts array reallocations (grow, reshape). Probe hints held
	// outside the table (dirSlotHint) carry the epoch they were taken
	// under and die when it moves on, so they can never index into an
	// abandoned array.
	epoch uint32
}

// dirTableInitialSlots matches the old map's size hint.
const dirTableInitialSlots = 1024

func newDirTable(p, w, cores int) *dirTable {
	d := &dirTable{p: p, w: w, cores: cores}
	d.alloc(dirTableInitialSlots)
	return d
}

func (d *dirTable) alloc(capacity int) {
	d.keys = make([]uint64, capacity)
	d.entries = make([]dirEntry, capacity)
	d.occ = flatmap.NewOccupancy(capacity)
	d.arena = make([]int16, capacity*d.p)
	d.cls = make([]core.Slot, capacity*d.w)
	d.mask = uint64(capacity - 1)
	d.shift = uint(64 - bits.TrailingZeros(uint(capacity)))
	d.live, d.dead = 0, 0
	d.epoch++
}

// backing returns slot i's segment of the identity arena, zero-length with
// capacity p.
func (d *dirTable) backing(i uint64) []int16 {
	base := int(i) * d.p
	return d.arena[base : base : base+d.p]
}

// clsBacking returns slot i's w-slot segment of the classifier arena.
func (d *dirTable) clsBacking(i uint64) []core.Slot {
	base := int(i) * d.w
	return d.cls[base : base+d.w : base+d.w]
}

// rebind points entry i's sharer set and classifier at slot i's arena
// segments, moving their contents there.
func (d *dirTable) rebind(i uint64) {
	e := &d.entries[i]
	e.sharers.Rebind(d.backing(i))
	e.cls.Rebind(d.clsBacking(i))
}

func (d *dirTable) probe(la mem.Addr) *dirEntry {
	if i := d.probeIdx(la); i >= 0 {
		return &d.entries[i]
	}
	return nil
}

// probeIdx returns la's live slot index, or -1. Exposed (package-
// internally) so probeHinted can keep an epoch-guarded index hint per
// core. Tombstoned keys match nothing and keep the chain walking.
func (d *dirTable) probeIdx(la mem.Addr) int {
	key := mem.LineKey(la)
	i := hashKey(key, d.shift)
	for {
		switch d.keys[i] {
		case key:
			return int(i)
		case dirKeyEmpty:
			return -1
		}
		i = (i + 1) & d.mask
	}
}

// insert claims a slot for la and returns its entry: no owner, an empty
// sharer set and a pristine classifier (all cores private, Figure 4), both
// in the slot's arena segments. The line must not be present.
func (d *dirTable) insert(la mem.Addr) *dirEntry {
	if (d.live+d.dead+1)*4 > len(d.keys)*3 {
		d.grow()
	}
	key := mem.LineKey(la)
	i := hashKey(key, d.shift)
	target := -1 // first tombstone on the probe path, reusable
	for {
		switch d.keys[i] {
		case key:
			panic(fmt.Sprintf("sim: directory insert of resident line %#x", la))
		case dirKeyEmpty:
			if target < 0 {
				target = int(i)
			}
		case dirKeyDead:
			if target < 0 {
				target = int(i)
			}
			i = (i + 1) & d.mask
			continue
		default:
			i = (i + 1) & d.mask
			continue
		}
		break
	}
	if d.keys[target] == dirKeyDead {
		d.dead--
	}
	d.keys[target] = key
	d.occ.Mark(uint64(target))
	d.entries[target] = dirEntry{
		owner:   -1,
		sharers: coherence.NewSharerSetBacked(d.p, d.backing(uint64(target))),
	}
	if d.w > 0 {
		d.entries[target].cls = core.NewClassifierBacked(d.cores, d.clsBacking(uint64(target)))
	}
	d.live++
	return &d.entries[target]
}

// remove tombstones la's slot. The line must be present.
func (d *dirTable) remove(la mem.Addr) {
	i := d.probeIdx(la)
	if i < 0 {
		panic(fmt.Sprintf("sim: directory remove of absent line %#x", la))
	}
	d.entries[i] = dirEntry{}
	d.keys[i] = dirKeyDead
	d.live--
	d.dead++
}

// grow rehashes into a table sized for the live population (doubling when
// genuinely full, merely dropping tombstones otherwise), rebinding every
// entry's sharer identities and classifier into the new arenas.
func (d *dirTable) grow() {
	capacity := len(d.keys)
	if (d.live+1)*2 >= capacity {
		capacity *= 2
	}
	oldKeys, oldEntries := d.keys, d.entries
	d.alloc(capacity)
	for oi, key := range oldKeys {
		if key == dirKeyEmpty || key == dirKeyDead {
			continue
		}
		i := hashKey(key, d.shift)
		for d.keys[i] != dirKeyEmpty {
			i = (i + 1) & d.mask
		}
		d.keys[i] = key
		d.occ.Mark(i)
		d.entries[i] = oldEntries[oi]
		d.rebind(i)
		d.live++
	}
}

// clearAll empties the table, keeping its grown capacity. Only the key
// array's flagged blocks are wiped (tombstones sit in flagged blocks too):
// entry records behind freed slots are unreachable (probe, forEach and
// insert all gate on keys) and re-initialized on insertion, and the arenas
// need no wiping either — every insert binds the slot's segments as an
// empty sharer set and a pristine classifier.
func (d *dirTable) clearAll() {
	if d.live == 0 && d.dead == 0 {
		return
	}
	d.occ.ForEach(func(lo, hi int) { clear(d.keys[lo:hi]) })
	d.occ.Reset()
	d.live, d.dead = 0, 0
}

// reshape empties the table and re-carves its arenas for a new per-entry
// pointer count p and classifier shape (w slots for cores cores), reusing
// the slot array (whose capacity is the dominant allocation) and each
// arena's capacity. Sweeps that flip between ACKwise-p and full-map
// variants, or between classifying and classifier-free kinds, reshape
// instead of rebuilding.
func (d *dirTable) reshape(p, w, cores int) {
	d.clearAll()
	d.p, d.w, d.cores = p, w, cores
	d.arena = resize(d.arena, len(d.keys)*p)
	d.cls = resize(d.cls, len(d.keys)*w)
}

// resize returns a with length n, reallocating only when its capacity is
// short. The contents are not kept.
func resize[T any](a []T, n int) []T {
	if cap(a) >= n {
		return a[:n]
	}
	return make([]T, n)
}

// copyFrom makes d an exact copy of src, which must have the same entry
// shape: capacity, slot layout, keys, occupancy bitmap and every live
// entry. Each copied sharer set and classifier is rebound to d's own
// arenas, so nothing d holds aliases src. Blocks src has not flagged hold
// only empty keys, so one walk over the blocks either table flags clears
// d's stale keys and copies src's. When src has grown to another
// capacity, d's arrays are dropped and reallocated.
func (d *dirTable) copyFrom(src *dirTable) {
	if d.p != src.p || d.w != src.w || d.cores != src.cores {
		panic(fmt.Sprintf("sim: directory copy of (%d pointers, %d classifier slots) entries into (%d, %d) ones",
			src.p, src.w, d.p, d.w))
	}
	if len(d.keys) != len(src.keys) {
		d.alloc(len(src.keys))
	}
	d.occ.Union(src.occ)
	d.occ.ForEach(func(lo, hi int) {
		for i := lo; i < hi; i++ {
			key := src.keys[i]
			d.keys[i] = key
			if key == dirKeyEmpty || key == dirKeyDead {
				continue
			}
			d.entries[i] = src.entries[i]
			d.rebind(uint64(i))
		}
	})
	copy(d.occ, src.occ)
	d.live, d.dead = src.live, src.dead
}

// forEach visits every live entry in ascending slot order, skipping
// blocks the occupancy bitmap proves empty.
func (d *dirTable) forEach(fn func(la mem.Addr, e *dirEntry)) {
	d.occ.ForEach(func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if key := d.keys[i]; key != dirKeyEmpty && key != dirKeyDead {
				fn(mem.Addr((key-1)<<mem.LineShift), &d.entries[i])
			}
		}
	})
}

// tileDir is the per-tile directory handle: the flat table in the fast
// core, a plain Go map in the reference core. Exactly one of the two
// representations is active. The reference core gives each entry its own
// freshly allocated sharer identities and classifier slots, so the
// differential tests compare the flat arenas against independent storage.
type tileDir struct {
	flat *dirTable
	ref  map[mem.Addr]*dirEntry
	// p sharer pointers and w classifier slots for cores cores per entry
	// (see dirTable).
	p, w, cores int
}

func newTileDir(p, w, cores int, reference bool) tileDir {
	if reference {
		return tileDir{ref: make(map[mem.Addr]*dirEntry, dirTableInitialSlots), p: p, w: w, cores: cores}
	}
	return tileDir{flat: newDirTable(p, w, cores), p: p, w: w, cores: cores}
}

func (d *tileDir) probe(la mem.Addr) *dirEntry {
	if d.ref != nil {
		return d.ref[la]
	}
	return d.flat.probe(la)
}

// dirSlotHint is a core's MRU hint into a home directory's flat table: the
// slot its previous miss transaction resolved to, with the tile and the
// table epoch it was taken under.
type dirSlotHint struct {
	idx   int32
	epoch uint32
	tile  int32
}

// probeHinted is probe for a requester holding hint h, at directory tile
// home. In the flat table a hint taken here under the current epoch is
// validated against the slot's key word before any hash probe, and a probe
// hit refreshes it. An epoch match guarantees the index was taken against
// the current arrays, so the bounds and the key comparison are sound;
// removal tombstones and wholesale clears rewrite the key word, so a stale
// hint can never validate. The reference map has no slots to hint.
func (d *tileDir) probeHinted(h *dirSlotHint, home int, la mem.Addr) *dirEntry {
	dt := d.flat
	if dt == nil {
		return d.ref[la]
	}
	if h.tile == int32(home) && h.epoch == dt.epoch && dt.keys[h.idx] == mem.LineKey(la) {
		return &dt.entries[h.idx]
	}
	if i := dt.probeIdx(la); i >= 0 {
		*h = dirSlotHint{idx: int32(i), epoch: dt.epoch, tile: int32(home)}
		return &dt.entries[i]
	}
	return nil
}

func (d *tileDir) insert(la mem.Addr) *dirEntry {
	if d.ref != nil {
		e := &dirEntry{owner: -1, sharers: coherence.NewSharerSet(d.p)}
		if d.w > 0 {
			e.cls = core.NewClassifierBacked(d.cores, make([]core.Slot, d.w))
		}
		d.ref[la] = e
		return e
	}
	return d.flat.insert(la)
}

func (d *tileDir) remove(la mem.Addr) {
	if d.ref != nil {
		delete(d.ref, la)
		return
	}
	d.flat.remove(la)
}

func (d *tileDir) forEach(fn func(la mem.Addr, e *dirEntry)) {
	if d.ref != nil {
		for la, e := range d.ref {
			fn(la, e)
		}
		return
	}
	d.flat.forEach(fn)
}

func (d *tileDir) size() int {
	if d.ref != nil {
		return len(d.ref)
	}
	return d.flat.live
}

// clear empties the directory for simulator reuse (Simulator.Reset).
func (d *tileDir) clear() {
	if d.ref != nil {
		clear(d.ref)
		return
	}
	d.flat.clearAll()
}

// reshape empties the directory and adopts a new entry shape, reusing
// storage where the representation allows (see dirTable.reshape).
func (d *tileDir) reshape(p, w, cores int) {
	d.p, d.w, d.cores = p, w, cores
	if d.ref != nil {
		clear(d.ref)
		return
	}
	d.flat.reshape(p, w, cores)
}

// The per-core miss-classification history and the golden/DRAM version
// stores are flatmap.Tables keyed by mem.LineKey: absent lines read as the
// zero value, matching the reference maps' semantics.

// histInitialSlots matches the old per-core history map's size hint.
const histInitialSlots = 4096

const verInitialSlots = 4096

// histStore is the per-core history handle: flat table or reference map.
type histStore struct {
	flat *flatmap.Table[uint8]
	ref  map[mem.Addr]uint8
}

func newHistStore(reference bool) histStore {
	if reference {
		return histStore{ref: make(map[mem.Addr]uint8, histInitialSlots)}
	}
	return histStore{flat: flatmap.New[uint8](histInitialSlots)}
}

func (h *histStore) get(la mem.Addr) uint8 {
	if h.ref != nil {
		return h.ref[la]
	}
	v, _ := h.flat.Get(mem.LineKey(la))
	return v
}

func (h *histStore) set(la mem.Addr, v uint8) {
	if h.ref != nil {
		h.ref[la] = v
		return
	}
	*h.flat.Slot(mem.LineKey(la)) = v
}

// clear empties the history for core-state reuse across runs.
func (h *histStore) clear() {
	if h.ref != nil {
		clear(h.ref)
		return
	}
	h.flat.Clear()
}

// verStore is a version-store handle: flat table or reference map.
type verStore struct {
	flat *flatmap.Table[uint64]
	ref  map[mem.Addr]uint64
}

func newVerStore(reference bool) verStore {
	if reference {
		return verStore{ref: make(map[mem.Addr]uint64)}
	}
	return verStore{flat: flatmap.New[uint64](verInitialSlots)}
}

func (v *verStore) get(la mem.Addr) uint64 {
	if v.ref != nil {
		return v.ref[la]
	}
	val, _ := v.flat.Get(mem.LineKey(la))
	return val
}

func (v *verStore) set(la mem.Addr, val uint64) {
	if v.ref != nil {
		v.ref[la] = val
		return
	}
	*v.flat.Slot(mem.LineKey(la)) = val
}

// clear empties the store for simulator reuse (Simulator.Reset).
func (v *verStore) clear() {
	if v.ref != nil {
		clear(v.ref)
		return
	}
	v.flat.Clear()
}

// bump increments la's version and returns the new value.
func (v *verStore) bump(la mem.Addr) uint64 {
	if v.ref != nil {
		v.ref[la]++
		return v.ref[la]
	}
	p := v.flat.Slot(mem.LineKey(la))
	*p++
	return *p
}

// forEach visits every line with a non-zero recorded version (test and
// differential-snapshot helper; zero-version entries created by Slot are
// indistinguishable from absent lines, matching map semantics where reads
// never materialize entries).
func (v *verStore) forEach(fn func(la mem.Addr, val uint64)) {
	if v.ref != nil {
		for la, val := range v.ref {
			if val != 0 {
				fn(la, val)
			}
		}
		return
	}
	v.flat.ForEach(func(key uint64, val uint64) {
		if val != 0 {
			fn(mem.Addr((key-1)<<mem.LineShift), val)
		}
	})
}
