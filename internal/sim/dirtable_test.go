package sim

import (
	"math/rand"
	"slices"
	"testing"
	"unsafe"

	"lacc/internal/core"
	"lacc/internal/mem"
)

// TestDirTableOccupancyMatchesFullScan checks the directory table's
// occupancy bitmap against a Go map and a scan of every key. Random
// insert and remove sequences (removal leaves tombstones) grow the table
// past its initial capacity, interleaved with clearAll and reshape to a
// new pointer width and classifier shape. After every operation forEach
// must visit exactly the live slots, in slot order, each with the entry
// last written for its line; after every clear no key, live or
// tombstoned, may remain. Every insert must hand out a pristine
// classifier, although the arena segment it reuses was written before.
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
	const cores = 16
	shapes := []int{0, core.Slots(cores, 3), core.Slots(cores, 0)}
	rng := rand.New(rand.NewSource(5))
	d := newDirTable(4, shapes[1], cores)
	ref := map[mem.Addr]int16{}
	var lines []mem.Addr // ref's keys, for picking removal victims
	grows, clears, removes := 0, 0, 0
	for step := 0; step < 20000; step++ {
		switch op := rng.Intn(3000); {
		case op < 2:
			if op == 0 {
				d.clearAll()
			} else {
				d.reshape(1+rng.Intn(8), shapes[clears%len(shapes)], cores)
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
			if e.owner != -1 || e.sharers.Count() != 0 {
				t.Fatalf("step %d: inserted entry %+v is not pristine", step, e)
			}
			if d.w > 0 {
				got := core.AppendTracked(nil, &e.cls)
				want := core.AppendTracked(nil, core.NewClassifier(cores, d.w-1))
				if !slices.Equal(got, want) {
					t.Fatalf("step %d: inserted classifier tracks %+v, want %+v", step, got, want)
				}
				st := core.Lookup(&e.cls, step%cores)
				st.Mode, st.RemoteUtil, st.Active = core.ModeRemote, uint16(step), true
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
// occupancy bitmap, counts and every live entry — with each sharer set and
// classifier holding the same state in the destination's own arenas, so
// the two tables then evolve independently.
func TestDirTableCopyFrom(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	w := core.Slots(64, 3)
	src, dst := newDirTable(4, w, 64), newDirTable(4, w, 64)
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
				st := core.Lookup(&e.cls, rng.Intn(64))
				st.Mode, st.RemoteUtil, st.Active = core.ModeRemote, uint16(rng.Intn(16)), rng.Intn(2) == 0
			}
		}
	}
	for round := 0; round < 30; round++ {
		churn(src, 0, rng.Intn(1500))
		churn(dst, 1<<30, rng.Intn(1500))
		dst.copyFrom(src)
		if !slices.Equal(dst.keys, src.keys) || !slices.Equal(dst.occ, src.occ) ||
			dst.live != src.live || dst.dead != src.dead {
			t.Fatalf("round %d: keys, bitmap or counts differ after copy", round)
		}
		src.forEach(func(la mem.Addr, se *dirEntry) {
			de := dst.probe(la)
			if de.owner != se.owner || !slices.Equal(de.sharers.Identified(), se.sharers.Identified()) ||
				!slices.Equal(core.AppendTracked(nil, &de.cls), core.AppendTracked(nil, &se.cls)) {
				t.Fatalf("round %d: %#x copied as %+v, source %+v", round, la, de, se)
			}
			// Nor may a write through the copy's classifier.
			if tr := core.AppendTracked(nil, &se.cls); len(tr) > 0 {
				before := tr[0].RemoteUtil
				core.Lookup(&de.cls, tr[0].Core).RemoteUtil = before + 1
				if core.Lookup(&se.cls, tr[0].Core).RemoteUtil != before {
					t.Fatalf("round %d: %#x classifier aliases the source's arena", round, la)
				}
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

// TestDirEntrySize: the directory entry stays within its 104-byte record
// (on 64-bit platforms), the classifier's slice header included.
func TestDirEntrySize(t *testing.T) {
	if n := unsafe.Sizeof(dirEntry{}); n > 104 {
		t.Fatalf("dirEntry is %d bytes, want at most 104", n)
	}
}
