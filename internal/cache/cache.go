// Package cache implements the set-associative cache arrays used for the
// private L1 instruction/data caches and the shared L2 slices. Cache lines
// carry the tag extensions of the paper's Figure 5: a private utilization
// counter and a last-access timestamp, plus a data version used by the
// functional correctness checker.
//
// The package is purely structural: coherence states are opaque bytes owned
// by the protocol layer, and the replacement policy is LRU as assumed by the
// paper's Timestamp check discussion (Section 3.2).
package cache

import (
	"fmt"
	"math/bits"

	"lacc/internal/mem"
)

// Line is one cache line's tag-array entry. Fields are ordered
// widest-first so the struct packs into 48 bytes (56 with the original
// ordering); the tag arrays are the bulk of a simulator's memory, so
// padding here is multiplied by every way of every cache of every tile.
type Line struct {
	// Addr is the line-aligned address held by this way.
	Addr mem.Addr
	// LastAccess is the last-access timestamp of Figure 5, used by the
	// Timestamp-based classifier.
	LastAccess mem.Cycle
	// Version is the data version observed when the copy was made; the
	// simulator's checker compares it against the golden store.
	Version uint64

	lru uint64

	// Util is the private utilization counter of Figure 5: the number of
	// accesses since the line was brought into this cache.
	Util uint32
	// Home caches the tile the line's directory lives on, so evictions know
	// where to send the notification without re-running placement.
	Home  int16
	Valid bool
	Dirty bool
	// State is the coherence state, owned by the protocol layer; the cache
	// only distinguishes Valid from free ways.
	State uint8
}

// tagOf returns the packed-tag encoding of a line address: the address
// plus one. Line addresses are 48-bit and line-aligned, so the encoding
// never overflows, never collides with another line, and never produces
// zero — which makes the zero value of a tag word mean "free way". Fresh
// and Reset tag arrays are therefore plain zeroed memory, and occupancy is
// decided entirely by the tag array: the Line records behind free ways may
// hold stale bytes from a previous run and are never read.
func tagOf(la mem.Addr) mem.Addr { return la + 1 }

// tagFree marks a free way in the packed tag array (see tagOf).
const tagFree = mem.Addr(0)

// Cache is a set-associative cache with LRU replacement. The zero value is
// not usable; construct with New.
type Cache struct {
	sets  int
	ways  int
	lines []Line // sets*ways, row-major by set
	// tags packs each way's occupancy (tagOf(line) for held lines, tagFree
	// for free ways) into a contiguous array so the probe loop scans one
	// hardware cache line of tags instead of striding across full Line
	// records. The tag array is authoritative: every structural query
	// (probe, insert victim choice, timestamp checks, iteration) consults
	// it, so Reset only has to clear tags — the far larger Line array is
	// left dirty and re-initialized way by way as lines are inserted.
	tags []mem.Addr
	// occ has one bit per set, raised by every insertion into the set and
	// cleared only by Reset (CopyFrom takes the source's bits): a clear
	// bit proves the set's tags are all free. Whole-cache walks (Reset,
	// CopyFrom, ForEach, CountValid) visit only the flagged sets, so they
	// cost what the cache has held since the last Reset rather than its
	// capacity — the difference between a few lines and a 256 KB L2 slice
	// for the model checker, which copies and audits the machine once per
	// explored transition. Invalidate leaves the bit up; a flagged set
	// with no held line is merely rescanned.
	occ  []uint64
	tick uint64

	// Evictions counts lines displaced by Insert.
	Evictions uint64
}

// New returns a cache with the given total size in bytes and associativity.
// Size must be a positive multiple of ways*64B and the resulting set count
// must be a power of two (all Table 1 configurations satisfy this).
func New(sizeBytes, ways int) *Cache {
	if sizeBytes <= 0 || ways <= 0 {
		panic(fmt.Sprintf("cache: invalid geometry size=%d ways=%d", sizeBytes, ways))
	}
	lines := sizeBytes / mem.LineBytes
	if lines%ways != 0 {
		panic(fmt.Sprintf("cache: size %dB not divisible into %d ways", sizeBytes, ways))
	}
	sets := lines / ways
	if sets&(sets-1) != 0 {
		panic(fmt.Sprintf("cache: set count %d not a power of two", sets))
	}
	// Zeroed tags mean every way is free; the Line records need no
	// initialization at all (see the tags field comment).
	return &Cache{
		sets: sets, ways: ways,
		lines: make([]Line, sets*ways),
		tags:  make([]mem.Addr, sets*ways),
		occ:   make([]uint64, (sets+63)/64),
	}
}

// mark flags set as possibly occupied (see the occ field).
func (c *Cache) mark(set int) { c.occ[set>>6] |= 1 << (set & 63) }

// flaggedSets calls fn, in ascending set order, with the tag-array span
// [lo, hi) of every run of adjacent sets flagged within one occ word, so a
// full cache is walked in spans of 64 sets rather than set by set.
func (c *Cache) flaggedSets(fn func(lo, hi int)) {
	for w, word := range c.occ {
		for word != 0 {
			first := bits.TrailingZeros64(word)
			n := bits.TrailingZeros64(^(word >> first)) // run length
			word &^= (1<<n - 1) << first
			set := w<<6 + first
			fn(set*c.ways, (set+n)*c.ways)
		}
	}
}

// Reset invalidates every line and zeroes the replacement clock and
// eviction counter, returning the cache to a state behaviorally identical
// to post-New without reallocating. Only the tags of sets flagged in occ
// are cleared — every other set's tags are already free: the stale Line
// records behind freed ways are unreachable (all queries gate on tags)
// and are overwritten on their next insertion.
func (c *Cache) Reset() {
	c.flaggedSets(func(lo, hi int) { clear(c.tags[lo:hi]) })
	clear(c.occ)
	c.tick = 0
	c.Evictions = 0
}

// CopyFrom makes c an exact copy of src, which must have the same
// geometry: tags, line records, occupancy bitmap, replacement clock and
// eviction counter, so every later probe, insertion and victim choice on c
// matches src's. Like Reset it walks only flagged sets: sets src has not
// flagged hold only free tags, so one walk over the sets either cache
// flags clears c's stale tags and copies src's, with the records of held
// lines (records behind free ways are never read). Line pointers into
// either cache stay pointers into that cache.
func (c *Cache) CopyFrom(src *Cache) {
	if c.sets != src.sets || c.ways != src.ways {
		panic(fmt.Sprintf("cache: CopyFrom of a %dx%d cache into a %dx%d one",
			src.sets, src.ways, c.sets, c.ways))
	}
	for w, bits := range src.occ {
		c.occ[w] |= bits
	}
	c.flaggedSets(func(lo, hi int) {
		copy(c.tags[lo:hi], src.tags[lo:hi])
		for i := lo; i < hi; i++ {
			if src.tags[i] != tagFree {
				c.lines[i] = src.lines[i]
			}
		}
	})
	copy(c.occ, src.occ)
	c.tick = src.tick
	c.Evictions = src.Evictions
}

// Sets returns the number of sets.
func (c *Cache) Sets() int { return c.sets }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.ways }

// SetOf returns the set index for an address.
func (c *Cache) SetOf(a mem.Addr) int {
	return int(mem.LineIndex(a)) & (c.sets - 1)
}

// Probe returns the line holding a's cache line, or nil on miss. It does not
// update replacement state; callers that consume the access should also call
// Touch.
func (c *Cache) Probe(a mem.Addr) *Line {
	key := tagOf(mem.LineOf(a))
	base := c.SetOf(a) * c.ways
	tags := c.tags[base : base+c.ways]
	for i, tag := range tags {
		if tag == key {
			return &c.lines[base+i]
		}
	}
	return nil
}

// Touch marks l most-recently-used and stamps its last-access time.
func (c *Cache) Touch(l *Line, now mem.Cycle) {
	c.tick++
	l.lru = c.tick
	l.LastAccess = now
}

// Insert allocates a way for address a and returns the new line plus a copy
// of the victim if a valid line was displaced. The new line is returned
// zeroed except for Valid and Addr; the caller fills in state, utilization
// and version, and should Touch it. Inserting an address already present
// panics: the protocol layer must Probe first.
func (c *Cache) Insert(a mem.Addr) (l *Line, victim Line, evicted bool) {
	la := mem.LineOf(a)
	key := tagOf(la)
	set := c.SetOf(a)
	base := set * c.ways
	var victimIdx = -1
	var victimLRU uint64 = ^uint64(0)
	for i := 0; i < c.ways; i++ {
		tag := c.tags[base+i]
		if tag == tagFree {
			victimIdx = i
			evicted = false
			goto place
		}
		if tag == key {
			panic(fmt.Sprintf("cache: Insert of resident line %#x", la))
		}
		if w := &c.lines[base+i]; w.lru < victimLRU {
			victimLRU = w.lru
			victimIdx = i
		}
	}
	victim = c.lines[base+victimIdx]
	evicted = true
	c.Evictions++
place:
	l = &c.lines[base+victimIdx]
	*l = Line{Valid: true, Addr: la}
	c.tags[base+victimIdx] = key
	c.mark(set)
	return l, victim, evicted
}

// TryInsert allocates a way for address a like Insert, but will only evict
// a valid line if canEvict approves it (invalid ways need no approval). It
// returns nil when no acceptable way exists, leaving the set untouched.
// Used by victim replication, whose replicas must never displace home
// lines.
func (c *Cache) TryInsert(a mem.Addr, canEvict func(*Line) bool) (l *Line, victim Line, evicted bool) {
	la := mem.LineOf(a)
	key := tagOf(la)
	set := c.SetOf(a)
	base := set * c.ways
	victimIdx := -1
	var victimLRU uint64 = ^uint64(0)
	for i := 0; i < c.ways; i++ {
		tag := c.tags[base+i]
		if tag == tagFree {
			l = &c.lines[base+i]
			*l = Line{Valid: true, Addr: la}
			c.tags[base+i] = key
			c.mark(set)
			return l, Line{}, false
		}
		if tag == key {
			panic(fmt.Sprintf("cache: TryInsert of resident line %#x", la))
		}
		if w := &c.lines[base+i]; canEvict(w) && w.lru < victimLRU {
			victimLRU = w.lru
			victimIdx = i
		}
	}
	if victimIdx < 0 {
		return nil, Line{}, false
	}
	victim = c.lines[base+victimIdx]
	c.Evictions++
	l = &c.lines[base+victimIdx]
	*l = Line{Valid: true, Addr: la}
	c.tags[base+victimIdx] = key
	c.mark(set)
	return l, victim, true
}

// Invalidate removes a's line if present and returns a copy of it.
func (c *Cache) Invalidate(a mem.Addr) (Line, bool) {
	key := tagOf(mem.LineOf(a))
	base := c.SetOf(a) * c.ways
	for i := 0; i < c.ways; i++ {
		if c.tags[base+i] == key {
			l := &c.lines[base+i]
			old := *l
			*l = Line{}
			c.tags[base+i] = tagFree
			return old, true
		}
	}
	return Line{}, false
}

// HasInvalidWay reports whether the set for address a has a free way. The
// paper's RAT short-cut and Timestamp check both use this.
func (c *Cache) HasInvalidWay(a mem.Addr) bool {
	base := c.SetOf(a) * c.ways
	for i := 0; i < c.ways; i++ {
		if c.tags[base+i] == tagFree {
			return true
		}
	}
	return false
}

// MinLastAccess returns the minimum last-access time among valid lines in
// a's set and whether the set is full. When the set has an invalid way the
// paper's Timestamp check passes trivially; callers should consult full.
func (c *Cache) MinLastAccess(a mem.Addr) (min mem.Cycle, full bool) {
	base := c.SetOf(a) * c.ways
	full = true
	min = ^mem.Cycle(0)
	for i := 0; i < c.ways; i++ {
		if c.tags[base+i] == tagFree {
			full = false
			continue
		}
		if l := &c.lines[base+i]; l.LastAccess < min {
			min = l.LastAccess
		}
	}
	if !full {
		min = 0
	}
	return min, full
}

// ForEach calls fn for every held line in tag-array order (ascending set,
// then way), visiting only the sets flagged in occ. Used by drain/flush
// paths, Audit and tests; fn must not insert or invalidate concurrently.
func (c *Cache) ForEach(fn func(*Line)) {
	c.flaggedSets(func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if c.tags[i] != tagFree {
				fn(&c.lines[i])
			}
		}
	})
}

// CountValid returns the number of held lines (test helper and occupancy
// metric).
func (c *Cache) CountValid() int {
	n := 0
	c.ForEach(func(*Line) { n++ })
	return n
}
