package flatmap

import (
	"math/rand"
	"slices"
	"testing"
)

// TestTableAgainstMap drives a random insert/update/lookup sequence
// against a Go map reference model across several value shapes.
func TestTableAgainstMap(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	table := New[uint64](8) // tiny start forces many grows
	ref := map[uint64]uint64{}
	for step := 0; step < 50000; step++ {
		key := uint64(1 + rng.Intn(4096))
		if rng.Intn(2) == 0 {
			v := rng.Uint64()
			*table.Slot(key) = v
			ref[key] = v
		} else {
			got, ok := table.Get(key)
			want, wantOK := ref[key]
			if ok != wantOK || got != want {
				t.Fatalf("Get(%d) = %d,%v want %d,%v", key, got, ok, want, wantOK)
			}
		}
	}
	if table.Len() != len(ref) {
		t.Fatalf("Len() = %d, want %d", table.Len(), len(ref))
	}
	visited := map[uint64]uint64{}
	table.ForEach(func(k uint64, v uint64) { visited[k] = v })
	if len(visited) != len(ref) {
		t.Fatalf("ForEach visited %d keys, want %d", len(visited), len(ref))
	}
	for k, v := range ref {
		if visited[k] != v {
			t.Fatalf("ForEach saw %d=%d, want %d", k, visited[k], v)
		}
	}
}

// TestSlotInsertsZero pins the insert-if-absent contract: Slot on a new
// key materializes a zero value that Get then reports as present.
func TestSlotInsertsZero(t *testing.T) {
	table := New[int16](8)
	p := table.Slot(42)
	if *p != 0 {
		t.Fatalf("fresh slot = %d, want 0", *p)
	}
	if _, ok := table.Get(42); !ok {
		t.Fatal("key absent after Slot")
	}
	*p = -7
	if v, _ := table.Get(42); v != -7 {
		t.Fatalf("Get = %d, want -7", v)
	}
}

// TestCapacityRounding pins the power-of-two rounding of New.
func TestCapacityRounding(t *testing.T) {
	for _, c := range []int{0, 1, 7, 8, 9, 1000} {
		table := New[uint8](c)
		n := len(table.slots)
		if n&(n-1) != 0 || n < 8 || n < c {
			t.Fatalf("New(%d) allocated %d slots", c, n)
		}
	}
}

// TestOccupancyMatchesFullScan checks the occupancy bitmap against a Go
// map and a scan of every slot. Random Slot sequences grow a tiny table
// many times over, interleaved with Clears. After every operation ForEach
// must visit exactly the occupied slots, in slot order, with the map's
// values; after every Clear no slot may hold a key and no key cleared away
// may still be found.
func TestOccupancyMatchesFullScan(t *testing.T) {
	type kv struct{ k, v uint64 }
	scan := func(table *Table[uint64]) []kv {
		var out []kv
		for _, s := range table.slots {
			if s.key != 0 {
				out = append(out, kv{s.key, s.val})
			}
		}
		return out
	}
	rng := rand.New(rand.NewSource(11))
	table := New[uint64](8)
	ref := map[uint64]uint64{}
	clears := 0
	for step := 0; step < 30000; step++ {
		if rng.Intn(500) == 0 {
			table.Clear()
			clears++
			if got := scan(table); len(got) != 0 {
				t.Fatalf("step %d: %d slots hold keys after Clear", step, len(got))
			}
			for k := range ref {
				if _, ok := table.Get(k); ok {
					t.Fatalf("step %d: key %d found after Clear", step, k)
				}
			}
			clear(ref)
		} else {
			// Keys spread over a range the table grows to cover, so
			// blocks fill unevenly and many stay empty.
			k := uint64(1 + rng.Intn(1<<12))
			v := rng.Uint64()
			*table.Slot(k) = v
			ref[k] = v
		}
		want := scan(table)
		var got []kv
		table.ForEach(func(k, v uint64) { got = append(got, kv{k, v}) })
		if len(got) != len(want) || len(got) != len(ref) || table.Len() != len(ref) {
			t.Fatalf("step %d: ForEach visited %d, full scan %d, map %d, Len %d",
				step, len(got), len(want), len(ref), table.Len())
		}
		for i := range want {
			if got[i] != want[i] || ref[got[i].k] != got[i].v {
				t.Fatalf("step %d: ForEach visit %d is %v, full scan %v, map value %d",
					step, i, got[i], want[i], ref[got[i].k])
			}
		}
	}
	if clears == 0 || len(table.slots) < 1<<12 {
		t.Fatalf("sequence made %d clears and grew to %d slots", clears, len(table.slots))
	}
}

// TestCopyFromExact: CopyFrom onto a table that holds keys of its own, at
// the same capacity or another one, leaves it identical to the source —
// every slot, the occupancy bitmap and the count — so later lookups,
// insertions and growth behave the same on both.
func TestCopyFromExact(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	src, dst := New[uint64](8), New[uint64](8)
	fill := func(table *Table[uint64], lo, n int) {
		for i := 0; i < n; i++ {
			*table.Slot(uint64(lo + rng.Intn(1<<10))) = rng.Uint64()
		}
	}
	for round := 0; round < 60; round++ {
		// Varying fills make the source's capacity sometimes larger and
		// sometimes smaller than the destination's.
		if rng.Intn(4) == 0 {
			src.Clear()
		}
		fill(src, 1, rng.Intn(400))
		fill(dst, 1<<20, rng.Intn(400))
		dst.CopyFrom(src)
		if !slices.Equal(dst.slots, src.slots) || !slices.Equal(dst.occ, src.occ) || dst.Len() != src.Len() {
			t.Fatalf("round %d: copy differs from source (%d/%d slots, %d/%d keys)",
				round, len(dst.slots), len(src.slots), dst.Len(), src.Len())
		}
		for i := 0; i < 200; i++ {
			k, v := uint64(1+rng.Intn(1<<11)), rng.Uint64()
			*src.Slot(k) = v
			*dst.Slot(k) = v
		}
		if !slices.Equal(dst.slots, src.slots) || !slices.Equal(dst.occ, src.occ) {
			t.Fatalf("round %d: copy and source diverge under the same insertions", round)
		}
	}
}
