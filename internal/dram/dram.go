// Package dram models the off-chip memory subsystem of Table 1: 8 memory
// controllers, 5 GBps of bandwidth per controller and 100 ns access latency.
// Queueing delay from the finite per-controller bandwidth is modeled with a
// next-free-time service queue, matching the paper's "queueing delay
// incurred due to finite off-chip bandwidth".
package dram

import (
	"fmt"

	"lacc/internal/mem"
)

// Config describes the off-chip memory system.
type Config struct {
	// Controllers is the number of memory controllers (Table 1: 8).
	Controllers int
	// LatencyCycles is the DRAM access latency (Table 1: 100 ns = 100
	// cycles at 1 GHz).
	LatencyCycles int
	// BytesPerCycle is the per-controller bandwidth (Table 1: 5 GBps at
	// 1 GHz = 5 bytes per cycle).
	BytesPerCycle float64
	// Tiles lists the mesh tile hosting each controller. Length must equal
	// Controllers.
	Tiles []int
}

// DefaultTiles places n controllers evenly on the left and right edges of a
// width×height mesh, mirroring tiled multicores with edge memory
// controllers (Figure 3 shows "Mem Ctrl" tiles on the chip boundary).
func DefaultTiles(n, width, height int) []int {
	tiles := make([]int, 0, n)
	half := (n + 1) / 2
	for i := 0; i < half; i++ { // left edge, evenly spaced rows
		row := i * height / half
		tiles = append(tiles, row*width)
	}
	for i := 0; len(tiles) < n; i++ { // right edge
		row := i * height / (n - half)
		tiles = append(tiles, row*width+width-1)
	}
	return tiles
}

// Model is the memory-controller array. A Model is not safe for concurrent
// use.
type Model struct {
	cfg      Config
	nextFree []mem.Cycle

	// Reads and Writes count line/word transfers per direction.
	Reads, Writes uint64
	// BytesMoved counts payload bytes for bandwidth sanity checks.
	BytesMoved uint64
	// QueueCycles accumulates total queueing delay for diagnostics.
	QueueCycles uint64
}

// New returns a DRAM model for cfg.
func New(cfg Config) *Model {
	if cfg.Controllers <= 0 {
		panic("dram: need at least one controller")
	}
	if len(cfg.Tiles) != cfg.Controllers {
		panic(fmt.Sprintf("dram: %d tiles for %d controllers", len(cfg.Tiles), cfg.Controllers))
	}
	if cfg.BytesPerCycle <= 0 {
		panic("dram: bandwidth must be positive")
	}
	if cfg.LatencyCycles < 0 {
		panic("dram: negative latency")
	}
	return &Model{cfg: cfg, nextFree: make([]mem.Cycle, cfg.Controllers)}
}

// Reset frees every controller and zeroes the traffic counters, returning
// the model to its post-New state for the same configuration.
func (m *Model) Reset() {
	clear(m.nextFree)
	m.Reads, m.Writes, m.BytesMoved, m.QueueCycles = 0, 0, 0, 0
}

// CopyFrom makes m an exact copy of src, which must have the same
// configuration: every controller's next-free time and the counters.
func (m *Model) CopyFrom(src *Model) {
	if !m.Matches(src.cfg) {
		panic("dram: CopyFrom between differently configured models")
	}
	copy(m.nextFree, src.nextFree)
	m.Reads, m.Writes, m.BytesMoved, m.QueueCycles = src.Reads, src.Writes, src.BytesMoved, src.QueueCycles
}

// Matches reports whether the model was built for exactly cfg, so callers
// can reuse it across runs.
func (m *Model) Matches(cfg Config) bool {
	if m.cfg.Controllers != cfg.Controllers ||
		m.cfg.LatencyCycles != cfg.LatencyCycles ||
		m.cfg.BytesPerCycle != cfg.BytesPerCycle ||
		len(m.cfg.Tiles) != len(cfg.Tiles) {
		return false
	}
	for i, t := range cfg.Tiles {
		if m.cfg.Tiles[i] != t {
			return false
		}
	}
	return true
}

// ControllerOf maps a line address to its controller (line-interleaved).
func (m *Model) ControllerOf(a mem.Addr) int {
	return int(mem.LineIndex(a)) % m.cfg.Controllers
}

// TileOf returns the mesh tile hosting controller c.
func (m *Model) TileOf(c int) int { return m.cfg.Tiles[c] }

// Read services a line read of `bytes` bytes at controller c starting at
// `at` and returns the completion cycle (queueing + access latency +
// transfer).
func (m *Model) Read(c int, bytes int, at mem.Cycle) mem.Cycle {
	m.Reads++
	return m.service(c, bytes, at)
}

// Write services a write-back of `bytes` bytes at controller c. Write-backs
// consume bandwidth but the caller typically does not wait on the returned
// completion time (posted writes).
func (m *Model) Write(c int, bytes int, at mem.Cycle) mem.Cycle {
	m.Writes++
	return m.service(c, bytes, at)
}

func (m *Model) service(c int, bytes int, at mem.Cycle) mem.Cycle {
	if bytes <= 0 {
		panic("dram: non-positive transfer size")
	}
	transfer := mem.Cycle(float64(bytes)/m.cfg.BytesPerCycle + 0.999999)
	if transfer == 0 {
		transfer = 1
	}
	start := at
	if free := m.nextFree[c]; free > start {
		start = free
	}
	m.nextFree[c] = start + transfer
	m.QueueCycles += uint64(start - at)
	m.BytesMoved += uint64(bytes)
	return start + transfer + mem.Cycle(m.cfg.LatencyCycles)
}
