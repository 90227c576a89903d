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
// live inline in the slot array, and with a per-table identity arena that
// backs every directory slot's sharer set. The directory table is
// specialized here (it needs tombstones and the arena); the plain
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
// 8-byte key array (several slots per hardware cache line) and touch an
// 80-byte dirEntry record only on the final hit, mirroring the cache
// package's packed tag arrays. Each slot owns a fixed p-pointer segment of
// the table's identity arena, handed to the slot's sharer set at insert,
// so a directory entry's whole footprint — entry, sharer identities — is
// flat arrays with no per-entry allocation. Because the key array is
// authoritative, wholesale clearing only wipes keys: entry records behind
// free slots are unreachable and re-initialized on insertion. An
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

func newDirTable(p int) *dirTable {
	d := &dirTable{p: p}
	d.alloc(dirTableInitialSlots)
	return d
}

func (d *dirTable) alloc(capacity int) {
	d.keys = make([]uint64, capacity)
	d.entries = make([]dirEntry, capacity)
	d.occ = flatmap.NewOccupancy(capacity)
	d.arena = make([]int16, capacity*d.p)
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

// insert claims a slot for la and returns its entry, zeroed except for the
// arena-backed sharer set. The line must not be present.
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
	d.entries[target] = dirEntry{sharers: coherence.NewSharerSetBacked(d.p, d.backing(uint64(target)))}
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
// entry's sharer identities into the new arena.
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
		d.entries[i].sharers.Rebind(d.backing(i))
		d.live++
	}
}

// clearAll empties the table, keeping its grown capacity. Only the key
// array's flagged blocks are wiped (tombstones sit in flagged blocks too):
// entry records behind freed slots are unreachable (probe, forEach and
// insert all gate on keys) and re-initialized on insertion, and the
// sharer-identity arena needs no wiping either — every insert rebinds the
// slot's segment as a zero-length set.
func (d *dirTable) clearAll() {
	if d.live == 0 && d.dead == 0 {
		return
	}
	d.occ.ForEach(func(lo, hi int) { clear(d.keys[lo:hi]) })
	d.occ.Reset()
	d.live, d.dead = 0, 0
}

// reshape empties the table and re-carves its identity arena for a new
// per-entry pointer count, reusing the slot array (whose capacity is the
// dominant allocation). Sweeps that flip between ACKwise-p and full-map
// variants reshape instead of rebuilding.
func (d *dirTable) reshape(p int) {
	d.clearAll()
	if p == d.p {
		return
	}
	d.p = p
	if need := len(d.keys) * p; cap(d.arena) >= need {
		d.arena = d.arena[:need]
	} else {
		d.arena = make([]int16, need)
	}
}

// copyFrom makes d an exact copy of src, which must have the same pointer
// count: capacity, slot layout, keys, occupancy bitmap and every live
// entry. d's live classifiers go back to pool, each copied sharer set is
// rebound to d's own arena and each classifier is cloned from pool, so
// nothing d holds aliases src. Blocks src has not flagged hold only empty
// keys, so one walk over the blocks either table flags clears d's stale
// keys and copies src's. When src has grown to another capacity, d's
// arrays (and the classifiers of their entries) are dropped and
// reallocated.
func (d *dirTable) copyFrom(src *dirTable, pool *core.ClassifierPool) {
	if d.p != src.p {
		panic(fmt.Sprintf("sim: directory copy of %d-pointer entries into %d-pointer ones", src.p, d.p))
	}
	if len(d.keys) != len(src.keys) {
		d.alloc(len(src.keys))
	}
	d.occ.Union(src.occ)
	d.occ.ForEach(func(lo, hi int) {
		for i := lo; i < hi; i++ {
			e := &d.entries[i]
			if key := d.keys[i]; key != dirKeyEmpty && key != dirKeyDead && e.cls != nil {
				pool.Put(e.cls)
				e.cls = nil
			}
			key := src.keys[i]
			d.keys[i] = key
			if key == dirKeyEmpty || key == dirKeyDead {
				continue
			}
			*e = src.entries[i]
			e.sharers.Rebind(d.backing(uint64(i)))
			if e.cls != nil {
				e.cls = pool.Clone(e.cls)
			}
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
// representations is active.
type tileDir struct {
	flat *dirTable
	ref  map[mem.Addr]*dirEntry
	p    int
}

func newTileDir(p int, reference bool) tileDir {
	if reference {
		return tileDir{ref: make(map[mem.Addr]*dirEntry, dirTableInitialSlots), p: p}
	}
	return tileDir{flat: newDirTable(p), p: p}
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
		e := &dirEntry{sharers: coherence.NewSharerSet(d.p)}
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

// reshape empties the directory and adopts a new per-entry pointer count,
// reusing storage where the representation allows (see dirTable.reshape).
func (d *tileDir) reshape(p int) {
	d.p = p
	if d.ref != nil {
		clear(d.ref)
		return
	}
	d.flat.reshape(p)
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
