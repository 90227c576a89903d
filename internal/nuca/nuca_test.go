package nuca

import (
	"testing"
	"testing/quick"

	"lacc/internal/mem"
)

func TestFirstTouchPrivate(t *testing.T) {
	p := New(64, 8)
	home, recl := p.DataHome(0x1000, 5)
	if home != 5 || recl != nil {
		t.Fatalf("first touch: home=%d recl=%v", home, recl)
	}
	// Same core again: still private, still local.
	home, recl = p.DataHome(0x1040, 5)
	if home != 5 || recl != nil {
		t.Fatalf("re-touch: home=%d recl=%v", home, recl)
	}
	if p.PrivatePages != 1 || p.SharedPages != 0 {
		t.Fatalf("page counts: %d/%d", p.PrivatePages, p.SharedPages)
	}
}

func TestReclassificationOnSecondCore(t *testing.T) {
	p := New(64, 8)
	p.DataHome(0x1000, 5)
	home, recl := p.DataHome(0x1008, 9)
	if recl == nil {
		t.Fatal("expected reclassification")
	}
	if recl.Page != 0x1000 || recl.OldHome != 5 {
		t.Fatalf("recl = %+v", recl)
	}
	if home < 0 || home >= 64 {
		t.Fatalf("shared home %d out of range", home)
	}
	if p.PrivatePages != 0 || p.SharedPages != 1 || p.Reclassifications != 1 {
		t.Fatalf("counts: %d/%d/%d", p.PrivatePages, p.SharedPages, p.Reclassifications)
	}
	// Further accesses by anyone reclassify nothing and agree on the home.
	h2, recl2 := p.DataHome(0x1008, 5)
	if recl2 != nil || h2 != home {
		t.Fatalf("post-shared access: home=%d recl=%v", h2, recl2)
	}
}

func TestSharedHomeIsPerLine(t *testing.T) {
	p := New(64, 8)
	p.DataHome(0x0, 0)
	p.DataHome(0x8, 1) // reclassify page 0
	homes := map[int]bool{}
	for i := 0; i < 64; i++ {
		h, _ := p.DataHome(mem.Addr(i*64), 2)
		homes[h] = true
	}
	// Hash interleaving should spread 64 lines over many slices.
	if len(homes) < 24 {
		t.Fatalf("shared lines concentrated on %d slices", len(homes))
	}
}

func TestPeekDataHomeDoesNotReclassify(t *testing.T) {
	p := New(64, 8)
	p.DataHome(0x2000, 3)
	if h := p.PeekDataHome(0x2000, 7); h != 3 {
		t.Fatalf("peek home = %d, want owner 3", h)
	}
	if p.Reclassifications != 0 {
		t.Fatal("peek reclassified")
	}
	// Peek of a cold page assumes requester-local placement.
	if h := p.PeekDataHome(0x9000, 7); h != 7 {
		t.Fatalf("cold peek = %d, want 7", h)
	}
}

func TestClassOf(t *testing.T) {
	p := New(64, 8)
	if _, ok := p.ClassOf(0x5000); ok {
		t.Fatal("cold page reported classified")
	}
	p.DataHome(0x5000, 1)
	if c, ok := p.ClassOf(0x5000); !ok || c != PagePrivate {
		t.Fatalf("class = %v ok=%v", c, ok)
	}
	p.DataHome(0x5000, 2)
	if c, _ := p.ClassOf(0x5000); c != PageShared {
		t.Fatalf("class after sharing = %v", c)
	}
}

func TestInstrHomeStaysInCluster(t *testing.T) {
	p := New(64, 8)
	// Core 0's 2x2 cluster is tiles {0,1,8,9}.
	cluster := map[int]bool{0: true, 1: true, 8: true, 9: true}
	seen := map[int]bool{}
	for i := 0; i < 32; i++ {
		h := p.InstrHome(mem.Addr(i*64), 0)
		if !cluster[h] {
			t.Fatalf("instr home %d outside cluster", h)
		}
		seen[h] = true
	}
	if len(seen) < 3 {
		t.Fatalf("rotational interleaving used only %d tiles", len(seen))
	}
	// Cores of the same cluster agree on the replica tile for a line.
	for _, c := range []int{0, 1, 8, 9} {
		if p.InstrHome(0x40, c) != p.InstrHome(0x40, 0) {
			t.Fatal("cluster members disagree on replica tile")
		}
	}
	// A different cluster uses its own tiles (per-cluster replication).
	h := p.InstrHome(0x40, 63) // cluster {54,55,62,63}
	if cluster[h] {
		t.Fatalf("remote cluster mapped into cluster 0 tile %d", h)
	}
}

func TestBadGeometryPanics(t *testing.T) {
	for _, c := range []struct{ tiles, w int }{{0, 8}, {64, 0}, {63, 8}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d,%d) did not panic", c.tiles, c.w)
				}
			}()
			New(c.tiles, c.w)
		}()
	}
}

// Property: DataHome is always in range, private pages stay at their owner
// until a second core appears, and classification counts stay consistent.
func TestPlacementProperties(t *testing.T) {
	f := func(ops []uint16) bool {
		p := New(16, 4)
		for _, op := range ops {
			core := int(op % 16)
			page := mem.Addr(op>>4) * mem.PageBytes
			home, _ := p.DataHome(page+mem.Addr(op%4096&^63), core)
			if home < 0 || home >= 16 {
				return false
			}
		}
		return p.PrivatePages+p.SharedPages == uint64(len(pagesOf(ops)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func pagesOf(ops []uint16) map[uint16]bool {
	m := map[uint16]bool{}
	for _, op := range ops {
		m[op>>4] = true
	}
	return m
}

// TestInstrHomeOnOddMeshes: on every mesh up to 16 tiles, odd widths and
// heights included, each requester's instruction homes are tiles of the
// mesh inside its own (possibly clipped) 2×2 cluster.
func TestInstrHomeOnOddMeshes(t *testing.T) {
	for tiles := 1; tiles <= 16; tiles++ {
		for w := 1; w <= tiles; w++ {
			if tiles%w != 0 {
				continue
			}
			p := New(tiles, w)
			for c := 0; c < tiles; c++ {
				for i := 0; i < 16; i++ {
					h := p.InstrHome(mem.Addr(i*64), c)
					if h < 0 || h >= tiles {
						t.Fatalf("%d tiles, width %d: core %d line %d homed at tile %d", tiles, w, c, i, h)
					}
					if h%w/2 != c%w/2 || h/w/2 != c/w/2 {
						t.Fatalf("%d tiles, width %d: core %d homed line %d outside its cluster, at tile %d",
							tiles, w, c, i, h)
					}
				}
			}
		}
	}
}
