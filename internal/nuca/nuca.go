// Package nuca implements Reactive-NUCA data placement (Hardavellas et al.,
// ISCA 2009) as used by the paper's baseline system (Section 3.1):
//
//   - private data is placed at the LLC slice of the requesting core,
//   - shared data is placed at a single slice selected by hashing the line
//     address across all slices,
//   - instructions are replicated at one slice per cluster of 4 cores using
//     rotational interleaving.
//
// Classification happens at OS page granularity by first touch: the first
// core to access a page owns it as private; the first access by any other
// core reclassifies the page as shared (the simulator then migrates the
// page's lines out of the old home slice).
package nuca

import (
	"fmt"

	"lacc/internal/flatmap"
	"lacc/internal/mem"
)

// PageClass is the R-NUCA page classification.
type PageClass uint8

// Page classes.
const (
	PagePrivate PageClass = iota
	PageShared
)

// Reclassification reports a private→shared page transition triggered by an
// access; the caller must flush the page's lines from the old home slice.
type Reclassification struct {
	Page    mem.Addr
	OldHome int
}

// Placement tracks page classifications and computes home slices.
type Placement struct {
	tiles    int
	meshW    int
	clusterW int
	clusterH int
	// pages maps pageKey → pageInfo. The DataHome lookup sits on every L1
	// miss, where the general-purpose map was measurable, so it uses the
	// shared open-addressed flat table.
	pages *flatmap.Table[pageInfo]

	// recl is the reclassification scratch returned by DataHome, valid
	// until the next call; reclassifications are handled synchronously by
	// the simulator, and reusing the value keeps the miss path
	// allocation-free.
	recl Reclassification

	// PrivatePages and SharedPages count current classifications;
	// Reclassifications counts private→shared transitions.
	PrivatePages      uint64
	SharedPages       uint64
	Reclassifications uint64
}

type pageInfo struct {
	class PageClass
	owner int16
}

// pageKey returns the non-zero flatmap key for a's page (flatmap reserves
// key 0 as the empty-slot sentinel).
func pageKey(a mem.Addr) uint64 { return uint64(a)>>mem.PageShift + 1 }

// New returns a placement policy for a meshW-wide mesh with `tiles` tiles.
// Instruction clusters are 2×2 (4 cores) per the paper; for meshes smaller
// than 2×2 the whole mesh forms one cluster.
func New(tiles, meshW int) *Placement {
	if tiles <= 0 || meshW <= 0 || tiles%meshW != 0 {
		panic(fmt.Sprintf("nuca: bad geometry tiles=%d meshW=%d", tiles, meshW))
	}
	cw, ch := 2, 2
	if meshW < 2 {
		cw = 1
	}
	if tiles/meshW < 2 {
		ch = 1
	}
	return &Placement{
		tiles: tiles, meshW: meshW,
		clusterW: cw, clusterH: ch,
		pages: flatmap.New[pageInfo](1024),
	}
}

// Reset forgets every page classification and zeroes the counters,
// returning the placement to its post-New state for the same geometry (the
// page table keeps its grown capacity).
func (p *Placement) Reset() {
	p.pages.Clear()
	p.recl = Reclassification{}
	p.PrivatePages, p.SharedPages, p.Reclassifications = 0, 0, 0
}

// CopyFrom makes p an exact copy of src, which must have the same
// geometry: every page classification and the counters. The page table
// copy costs what the two tables hold (flatmap.Table.CopyFrom).
func (p *Placement) CopyFrom(src *Placement) {
	if !p.Matches(src.tiles, src.meshW) {
		panic(fmt.Sprintf("nuca: CopyFrom of a %d-tile placement into a %d-tile one", src.tiles, p.tiles))
	}
	p.pages.CopyFrom(src.pages)
	p.recl = src.recl
	p.PrivatePages, p.SharedPages, p.Reclassifications = src.PrivatePages, src.SharedPages, src.Reclassifications
}

// Matches reports whether the placement was built for this geometry.
func (p *Placement) Matches(tiles, meshW int) bool {
	return p.tiles == tiles && p.meshW == meshW
}

// mix64 is a splitmix64-style finalizer giving a well-spread deterministic
// hash for address interleaving.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// sharedHome returns the slice for a shared line (hash interleaving).
func (p *Placement) sharedHome(a mem.Addr) int {
	return int(mix64(mem.LineIndex(a)) % uint64(p.tiles))
}

// DataHome returns the home slice for a data access by `requester` and, when
// the access flips the page from private to shared, the reclassification the
// caller must act upon.
// The returned *Reclassification points at scratch storage reused by the
// next DataHome call; act on it before looking up another address.
func (p *Placement) DataHome(a mem.Addr, requester int) (home int, recl *Reclassification) {
	page := mem.PageOf(a)
	info, ok := p.pages.Get(pageKey(page))
	if !ok {
		*p.pages.Slot(pageKey(page)) = pageInfo{class: PagePrivate, owner: int16(requester)}
		p.PrivatePages++
		return requester, nil
	}
	switch info.class {
	case PagePrivate:
		if int(info.owner) == requester {
			return requester, nil
		}
		// First access by another core: reclassify to shared.
		*p.pages.Slot(pageKey(page)) = pageInfo{class: PageShared}
		p.PrivatePages--
		p.SharedPages++
		p.Reclassifications++
		p.recl = Reclassification{Page: page, OldHome: int(info.owner)}
		return p.sharedHome(a), &p.recl
	default:
		return p.sharedHome(a), nil
	}
}

// PeekDataHome returns the current home for a line without touching the
// page table (used for eviction notifications, which must not reclassify).
func (p *Placement) PeekDataHome(a mem.Addr, requester int) int {
	info, ok := p.pages.Get(pageKey(a))
	if !ok || info.class == PagePrivate {
		if ok {
			return int(info.owner)
		}
		return requester
	}
	return p.sharedHome(a)
}

// ClassOf returns the classification of a's page; cold pages default to
// private per first-touch.
func (p *Placement) ClassOf(a mem.Addr) (PageClass, bool) {
	info, ok := p.pages.Get(pageKey(a))
	return info.class, ok
}

// InstrHome returns the replica slice for an instruction line fetched by
// `requester`: the line is rotationally interleaved among the 4 tiles of
// the requester's cluster, so each cluster keeps its own replica. On a
// mesh with an odd width or height the last cluster of that dimension is
// clipped to the tiles that exist (2×1, 1×2 or 1×1).
func (p *Placement) InstrHome(a mem.Addr, requester int) int {
	x := requester % p.meshW
	y := requester / p.meshW
	baseX := (x / p.clusterW) * p.clusterW
	baseY := (y / p.clusterH) * p.clusterH
	w := min(p.clusterW, p.meshW-baseX)
	h := min(p.clusterH, p.tiles/p.meshW-baseY)
	idx := int(mix64(mem.LineIndex(a)) % uint64(w*h))
	dx := idx % w
	dy := idx / w
	return (baseY+dy)*p.meshW + baseX + dx
}
