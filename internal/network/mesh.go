// Package network models the electrical 2-D mesh interconnect of Table 1:
// XY dimension-ordered routing, 2-cycle hop latency (1 router + 1 link),
// 64-bit flits, and a contention model that considers only link contention
// with infinite input buffers, exactly as the paper specifies.
//
// The mesh also supports broadcast: a message is replicated along an
// XY tree (east/west along the source row, then north/south down every
// column) so that all tiles are reached with a single injection, mirroring
// the broadcast support ACKwise relies on (Section 3.1).
package network

import (
	"fmt"

	"lacc/internal/mem"
)

// Direction indexes the four mesh output links of a router.
type Direction uint8

// Mesh link directions.
const (
	East Direction = iota
	West
	North
	South
	numDirections
)

// Config describes the mesh geometry and timing.
type Config struct {
	Width  int // tiles per row
	Height int // tiles per column
	// HopLatency is the per-hop head latency in cycles (Table 1: 2 = 1
	// router + 1 link).
	HopLatency int
}

// Mesh is a W×H mesh with per-directed-link next-free times. A Mesh is not
// safe for concurrent use; the simulator serializes transactions.
type Mesh struct {
	cfg      Config
	linkFree []mem.Cycle // [tile*4+dir] next-free cycle per directed link
	rowTime  []mem.Cycle // broadcast scratch: head arrival per column

	// RouterFlits and LinkFlits count flit traversals for the energy model
	// (each flit is counted once per router and once per link it crosses).
	RouterFlits uint64
	LinkFlits   uint64
	// Messages counts injected messages (unicast or broadcast).
	Messages uint64
}

// New returns a mesh for the given configuration.
func New(cfg Config) *Mesh {
	if cfg.Width <= 0 || cfg.Height <= 0 {
		panic(fmt.Sprintf("network: bad mesh %dx%d", cfg.Width, cfg.Height))
	}
	if cfg.HopLatency <= 0 {
		cfg.HopLatency = 2
	}
	n := cfg.Width * cfg.Height
	return &Mesh{
		cfg:      cfg,
		linkFree: make([]mem.Cycle, n*int(numDirections)),
		rowTime:  make([]mem.Cycle, cfg.Width),
	}
}

// Reset frees every link and zeroes the traffic counters, returning the
// mesh to its post-New state for the same geometry.
func (m *Mesh) Reset() {
	clear(m.linkFree)
	m.RouterFlits, m.LinkFlits, m.Messages = 0, 0, 0
}

// CopyFrom makes m an exact copy of src, which must have the same
// geometry: every link's next-free time and the traffic counters.
func (m *Mesh) CopyFrom(src *Mesh) {
	if m.cfg != src.cfg {
		panic(fmt.Sprintf("network: CopyFrom of a %+v mesh into a %+v one", src.cfg, m.cfg))
	}
	copy(m.linkFree, src.linkFree)
	m.RouterFlits, m.LinkFlits, m.Messages = src.RouterFlits, src.LinkFlits, src.Messages
}

// Matches reports whether the mesh was built for exactly cfg (after New's
// HopLatency defaulting), so callers can reuse it across runs.
func (m *Mesh) Matches(cfg Config) bool {
	if cfg.HopLatency <= 0 {
		cfg.HopLatency = 2
	}
	return m.cfg == cfg
}

// Tiles returns the number of tiles.
func (m *Mesh) Tiles() int { return m.cfg.Width * m.cfg.Height }

// XY returns tile's mesh coordinates.
func (m *Mesh) XY(tile int) (x, y int) { return tile % m.cfg.Width, tile / m.cfg.Width }

// TileAt returns the tile id at (x, y).
func (m *Mesh) TileAt(x, y int) int { return y*m.cfg.Width + x }

// Hops returns the Manhattan distance between two tiles.
func (m *Mesh) Hops(src, dst int) int {
	sx, sy := m.XY(src)
	dx, dy := m.XY(dst)
	return abs(sx-dx) + abs(sy-dy)
}

// Diameter returns the mesh diameter in hops.
func (m *Mesh) Diameter() int { return m.cfg.Width + m.cfg.Height - 2 }

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// occupy crosses one link, applying link contention: the head waits for the
// link to free, then occupies it for `flits` cycles. It returns the head's
// arrival time at the next router.
func (m *Mesh) occupy(tile int, d Direction, t mem.Cycle, flits int) mem.Cycle {
	m.LinkFlits += uint64(flits)
	m.RouterFlits += uint64(flits)
	return m.traverse(tile, d, t, flits)
}

// traverse is occupy without the flit accounting; Unicast batches the
// counter updates (flits x hops) into one pair of adds per message.
func (m *Mesh) traverse(tile int, d Direction, t mem.Cycle, flits int) mem.Cycle {
	link := tile*int(numDirections) + int(d)
	if free := m.linkFree[link]; free > t {
		t = free
	}
	m.linkFree[link] = t + mem.Cycle(flits)
	return t + mem.Cycle(m.cfg.HopLatency)
}

// step advances the message head across one link (occupy plus the XY walk);
// broadcast uses it, while the unicast hot path tracks coordinates
// incrementally to avoid recomputing them per hop.
func (m *Mesh) step(tile int, d Direction, t mem.Cycle, flits int) (next int, out mem.Cycle) {
	t = m.occupy(tile, d, t, flits)
	x, y := m.XY(tile)
	switch d {
	case East:
		x++
	case West:
		x--
	case North:
		y--
	case South:
		y++
	}
	return m.TileAt(x, y), t
}

// Unicast routes a message of `flits` flits from src to dst using XY
// routing, departing at `depart`. It returns the cycle at which the full
// message (tail flit) has arrived at dst. A message to the local tile takes
// zero network time.
func (m *Mesh) Unicast(src, dst int, flits int, depart mem.Cycle) mem.Cycle {
	if flits <= 0 {
		panic("network: message needs at least one flit")
	}
	if src == dst {
		return depart
	}
	m.Messages++
	t := depart
	cur := src
	sx, sy := m.XY(src)
	dx, dy := m.XY(dst)
	hopFlits := uint64((abs(sx-dx) + abs(sy-dy)) * flits)
	m.LinkFlits += hopFlits
	m.RouterFlits += hopFlits
	for sx < dx { // X first
		t = m.traverse(cur, East, t, flits)
		sx++
		cur++
	}
	for sx > dx {
		t = m.traverse(cur, West, t, flits)
		sx--
		cur--
	}
	for sy < dy { // then Y
		t = m.traverse(cur, South, t, flits)
		sy++
		cur += m.cfg.Width
	}
	for sy > dy {
		t = m.traverse(cur, North, t, flits)
		sy--
		cur -= m.cfg.Width
	}
	// Tail flit arrives flits-1 cycles after the head.
	return t + mem.Cycle(flits-1)
}

// Broadcast injects a message of `flits` flits at src and replicates it
// along an XY tree so every tile receives exactly one copy. It returns the
// arrival cycle (tail flit) at every tile; the source's own entry is the
// departure time.
func (m *Mesh) Broadcast(src int, flits int, depart mem.Cycle) []mem.Cycle {
	return m.BroadcastInto(nil, src, flits, depart)
}

// BroadcastInto is Broadcast writing the arrival times into dst when it has
// capacity for one entry per tile (allocating otherwise), so hot callers
// can reuse one buffer across broadcasts. Every entry is overwritten.
func (m *Mesh) BroadcastInto(dst []mem.Cycle, src int, flits int, depart mem.Cycle) []mem.Cycle {
	if flits <= 0 {
		panic("network: message needs at least one flit")
	}
	m.Messages++
	var arrive []mem.Cycle
	if cap(dst) >= m.Tiles() {
		arrive = dst[:m.Tiles()]
	} else {
		arrive = make([]mem.Cycle, m.Tiles())
	}
	arrive[src] = depart

	sx, _ := m.XY(src)
	// Phase 1: spread along the source row.
	rowTime := m.rowTime // head arrival per column; fully overwritten below
	rowTime[sx] = depart
	cur, t := src, depart
	for x := sx; x < m.cfg.Width-1; x++ { // eastward
		cur, t = m.step(cur, East, t, flits)
		cx, _ := m.XY(cur)
		rowTime[cx] = t
	}
	cur, t = src, depart
	for x := sx; x > 0; x-- { // westward
		cur, t = m.step(cur, West, t, flits)
		cx, _ := m.XY(cur)
		rowTime[cx] = t
	}
	// Phase 2: from every tile of the source row, spread down each column.
	_, sy := m.XY(src)
	for x := 0; x < m.cfg.Width; x++ {
		base := m.TileAt(x, sy)
		arrive[base] = rowTime[x] + mem.Cycle(flits-1)
		cur, t = base, rowTime[x]
		for y := sy; y < m.cfg.Height-1; y++ { // southward
			cur, t = m.step(cur, South, t, flits)
			arrive[cur] = t + mem.Cycle(flits-1)
		}
		cur, t = base, rowTime[x]
		for y := sy; y > 0; y-- { // northward
			cur, t = m.step(cur, North, t, flits)
			arrive[cur] = t + mem.Cycle(flits-1)
		}
	}
	arrive[src] = depart
	return arrive
}

// UncontendedLatency returns the latency of a flits-long message over h hops
// with no contention; exposed for analytical checks and lock modelling.
func (m *Mesh) UncontendedLatency(h, flits int) mem.Cycle {
	if h == 0 {
		return 0
	}
	return mem.Cycle(h*m.cfg.HopLatency + flits - 1)
}
