package cache

import (
	"math/rand"
	"slices"
	"testing"

	"lacc/internal/mem"
)

// scanHeld is the full-scan reference for the occupancy bitmap: every held
// line, found by reading every tag of the cache in array order.
func scanHeld(c *Cache) []*Line {
	var out []*Line
	for i, tag := range c.tags {
		if tag != tagFree {
			out = append(out, &c.lines[i])
		}
	}
	return out
}

// TestOccupancyMatchesFullScan drives random Insert, TryInsert, Invalidate
// and Reset sequences and checks, after every operation, that the
// bitmap-guided walks agree with a scan of every tag: ForEach visits
// exactly the same lines in the same order and CountValid agrees. After
// each Reset, no tag is held and every address used so far misses.
func TestOccupancyMatchesFullScan(t *testing.T) {
	geometries := []struct{ size, ways int }{
		{2 * 64 * 2, 2},    // 2 sets: a partial bitmap word
		{32 << 10, 4},      // the 32 KB 4-way L1-D: 128 sets, two words
		{256 << 10, 8},     // the 256 KB 8-way L2 slice: 512 sets, eight words
		{64 * 64 * 16, 16}, // 64 sets: exactly one word
	}
	for gi, g := range geometries {
		rng := rand.New(rand.NewSource(int64(gi + 1)))
		c := New(g.size, g.ways)
		// An address range of a few times the capacity yields hits,
		// evictions and sets that stay empty between resets.
		span := 3 * c.Sets() * c.Ways()
		used := map[mem.Addr]bool{}
		resets := 0
		for step := 0; step < 20000; step++ {
			a := mem.Addr(rng.Intn(span)) * mem.LineBytes
			switch op := rng.Intn(100); {
			case op < 45:
				if c.Probe(a) == nil {
					l, _, _ := c.Insert(a)
					c.Touch(l, mem.Cycle(step))
					used[a] = true
				}
			case op < 65:
				if c.Probe(a) == nil {
					// Approve only odd-line victims, so some inserts fail.
					l, _, _ := c.TryInsert(a, func(v *Line) bool { return mem.LineIndex(v.Addr)%2 == 1 })
					if l != nil {
						c.Touch(l, mem.Cycle(step))
						used[a] = true
					}
				}
			case op < 99:
				c.Invalidate(a)
			default:
				c.Reset()
				resets++
				if held := scanHeld(c); len(held) != 0 {
					t.Fatalf("geometry %d step %d: %d tags held after Reset", gi, step, len(held))
				}
				for u := range used {
					if c.Probe(u) != nil {
						t.Fatalf("geometry %d step %d: %#x hits after Reset", gi, step, u)
					}
				}
			}
			want := scanHeld(c)
			var got []*Line
			c.ForEach(func(l *Line) { got = append(got, l) })
			if len(got) != len(want) {
				t.Fatalf("geometry %d step %d: ForEach visited %d lines, full scan holds %d",
					gi, step, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("geometry %d step %d: ForEach visit %d is %#x, full scan has %#x",
						gi, step, i, got[i].Addr, want[i].Addr)
				}
			}
			if n := c.CountValid(); n != len(want) {
				t.Fatalf("geometry %d step %d: CountValid = %d, full scan holds %d", gi, step, n, len(want))
			}
		}
		if resets == 0 {
			t.Fatalf("geometry %d: sequence never reset", gi)
		}
	}
}

// TestCopyFromExact: CopyFrom onto a cache that has run a sequence of its
// own leaves it identical to the source in everything a later operation
// reads — tags, held line records, occupancy bitmap, LRU clock and
// eviction count — and the two then evolve identically.
func TestCopyFromExact(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	src, dst := New(32<<10, 4), New(32<<10, 4)
	span := 3 * src.Sets() * src.Ways()
	op := func(c *Cache, a mem.Addr, step int) (Line, bool) {
		if rng.Intn(4) == 0 {
			return c.Invalidate(a)
		}
		if l := c.Probe(a); l != nil {
			c.Touch(l, mem.Cycle(step))
			return *l, false
		}
		l, victim, evicted := c.Insert(a)
		c.Touch(l, mem.Cycle(step))
		return victim, evicted
	}
	same := func(round int) {
		t.Helper()
		if !slices.Equal(dst.tags, src.tags) || !slices.Equal(dst.occ, src.occ) ||
			dst.tick != src.tick || dst.Evictions != src.Evictions {
			t.Fatalf("round %d: tags, bitmap, clock or evictions differ after CopyFrom", round)
		}
		for i, tag := range src.tags {
			if tag != tagFree && dst.lines[i] != src.lines[i] {
				t.Fatalf("round %d: way %d holds %+v, source %+v", round, i, dst.lines[i], src.lines[i])
			}
		}
	}
	for round := 0; round < 40; round++ {
		// Both run on their own; the destination touches a disjoint range,
		// so it holds sets the source has never flagged.
		for i := 0; i < 300; i++ {
			op(src, mem.Addr(rng.Intn(span))*mem.LineBytes, i)
			op(dst, mem.Addr(span+rng.Intn(span))*mem.LineBytes, i)
		}
		if round%10 == 9 {
			src.Reset()
		}
		dst.CopyFrom(src)
		same(round)
		for i := 0; i < 100; i++ {
			a := mem.Addr(rng.Intn(span)) * mem.LineBytes
			seed := rng.Int63()
			rng.Seed(seed)
			vs, es := op(src, a, i)
			rng.Seed(seed)
			vd, ed := op(dst, a, i)
			if vs != vd || es != ed {
				t.Fatalf("round %d step %d: source evicted %v %+v, copy %v %+v", round, i, es, vs, ed, vd)
			}
		}
		same(round)
	}
}
