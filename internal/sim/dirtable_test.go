package sim

import (
	"math/rand"
	"slices"
	"testing"

	"lacc/internal/mem"
)

// TestDirTableOccupancyMatchesFullScan checks the directory table's
// occupancy bitmap against a Go map and a scan of every key. Random
// insert and remove sequences (removal leaves tombstones) grow the table
// past its initial capacity, interleaved with clearAll and reshape to a
// new pointer width. After every operation forEach must visit exactly the
// live slots, in slot order, each with the entry last written for its
// line; after every clear no key, live or tombstoned, may remain.
func TestDirTableOccupancyMatchesFullScan(t *testing.T) {
	type visit struct {
		la    mem.Addr
		e     *dirEntry
		owner int16
	}
	scan := func(d *dirTable) []visit {
		var out []visit
		for i, key := range d.keys {
			if key != dirKeyEmpty && key != dirKeyDead {
				out = append(out, visit{mem.Addr((key - 1) << mem.LineShift), &d.entries[i], d.entries[i].owner})
			}
		}
		return out
	}
	rng := rand.New(rand.NewSource(5))
	d := newDirTable(4)
	ref := map[mem.Addr]int16{}
	var lines []mem.Addr // ref's keys, for picking removal victims
	grows, clears, removes := 0, 0, 0
	for step := 0; step < 20000; step++ {
		switch op := rng.Intn(3000); {
		case op < 2:
			if op == 0 {
				d.clearAll()
			} else {
				d.reshape(1 + rng.Intn(8))
			}
			clears++
			for i, key := range d.keys {
				if key != dirKeyEmpty {
					t.Fatalf("step %d: slot %d keeps key %#x after clear", step, i, key)
				}
			}
			for _, la := range lines {
				if d.probe(la) != nil {
					t.Fatalf("step %d: %#x found after clear", step, la)
				}
			}
			clear(ref)
			lines = lines[:0]
		case op < 750 && len(lines) > 0:
			j := rng.Intn(len(lines))
			la := lines[j]
			d.remove(la)
			delete(ref, la)
			lines[j] = lines[len(lines)-1]
			lines = lines[:len(lines)-1]
			removes++
		default:
			// Lines drawn from a range wider than the initial table, so
			// live entries and tombstones outgrow it between clears.
			la := mem.Addr(rng.Intn(1<<12)) << mem.LineShift
			if _, ok := ref[la]; ok {
				continue
			}
			epoch := d.epoch
			e := d.insert(la)
			if d.epoch != epoch {
				grows++
			}
			e.owner = int16(step)
			ref[la] = e.owner
			lines = append(lines, la)
		}
		want := scan(d)
		var got []visit
		d.forEach(func(la mem.Addr, e *dirEntry) { got = append(got, visit{la, e, e.owner}) })
		if len(got) != len(want) || len(got) != len(ref) {
			t.Fatalf("step %d: forEach visited %d entries, full scan %d, map %d",
				step, len(got), len(want), len(ref))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("step %d: forEach visit %d is %+v, full scan %+v", step, i, got[i], want[i])
			}
			if owner := ref[got[i].la]; owner != got[i].owner {
				t.Fatalf("step %d: forEach saw %#x owner %d, map has %d",
					step, got[i].la, got[i].owner, owner)
			}
		}
	}
	if grows < 2 || clears < 2 || removes == 0 {
		t.Fatalf("sequence made %d grows, %d clears, %d removes", grows, clears, removes)
	}
}

// TestDirTableCopyFrom: copyFrom onto a table that holds lines of its own
// leaves it identical to the source — keys (tombstones included),
// occupancy bitmap, counts and every live entry — with each sharer set
// holding the same identities in the destination's own arena, so the two
// tables then evolve independently.
func TestDirTableCopyFrom(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	src, dst := newDirTable(4), newDirTable(4)
	churn := func(d *dirTable, base mem.Addr, n int) {
		for i := 0; i < n; i++ {
			la := base + mem.Addr(rng.Intn(1<<10))<<mem.LineShift
			if d.probe(la) != nil {
				d.remove(la)
				continue
			}
			e := d.insert(la)
			e.owner = int16(rng.Intn(64))
			for c := 0; c < rng.Intn(4); c++ {
				if id := rng.Intn(64); !e.sharers.Contains(id) {
					e.sharers.Add(id)
				}
			}
		}
	}
	for round := 0; round < 30; round++ {
		churn(src, 0, rng.Intn(1500))
		churn(dst, 1<<30, rng.Intn(1500))
		dst.copyFrom(src, nil)
		if !slices.Equal(dst.keys, src.keys) || !slices.Equal(dst.occ, src.occ) ||
			dst.live != src.live || dst.dead != src.dead {
			t.Fatalf("round %d: keys, bitmap or counts differ after copy", round)
		}
		src.forEach(func(la mem.Addr, se *dirEntry) {
			de := dst.probe(la)
			if de.owner != se.owner || !slices.Equal(de.sharers.Identified(), se.sharers.Identified()) {
				t.Fatalf("round %d: %#x copied as %+v, source %+v", round, la, de, se)
			}
			// A write through the copy's identity list must not reach the
			// source's arena.
			if ids := de.sharers.Identified(); len(ids) > 0 {
				ids[0] = -1
				if se.sharers.Identified()[0] == -1 {
					t.Fatalf("round %d: %#x sharers alias the source's arena", round, la)
				}
			}
		})
	}
}
