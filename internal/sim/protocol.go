package sim

import (
	"fmt"

	"lacc/internal/cache"
	"lacc/internal/core"
	"lacc/internal/mem"
	"lacc/internal/stats"
)

// The protocol layer is closed: six coherence protocols run on one
// directory machine, dirProtocol (baseline.go), which owns the miss
// transaction (dirMiss, below), the line grant, the home-side release path
// and the reaction to cache displacement and R-NUCA page migration. The
// simulator core provides the substrate (tiles, mesh, DRAM, golden store,
// counters) and the protocol-neutral L1 hit path (dataAccess). The
// protocols differ only in
//
//   - capability flags on the machine: write requests carry the word
//     (wordRequests), directory entries carry the locality classifier
//     (clsSlots), there is no directory (noDirectory), and cores drop
//     their Shared lines at synchronization points (selfInvalidate);
//   - the sharer pointers per directory entry (pointers);
//   - a two-method policy: the home's decision for one request (resolve)
//     and the directory's reaction when a copy leaves (dropped).
//
// newProtocol sets the flags, the pointer width and the policy for
// Config.ProtocolKind:
//
//   - ProtocolAdaptive — the paper's locality-aware adaptive protocol
//     (ACKwise directory, private/remote classification, remote word
//     accesses), in adaptive.go,
//   - ProtocolMESI — a classic full-map MESI directory baseline (whole-line
//     transfers only, exact sharer vector), in mesi.go,
//   - ProtocolDragon — a Dragon-style write-update directory baseline
//     (writes to shared lines update all copies instead of invalidating
//     them), in dragon.go,
//   - ProtocolDLS — a directoryless shared-LLC baseline (every data access
//     is a remote word access at the home slice; no private caching, no
//     directory state), in dls.go,
//   - ProtocolNeat — MESI's policy with bounded sharer metadata (one
//     pointer plus an overflow count) and self-invalidation of shared
//     copies at synchronization points, in neat.go,
//   - ProtocolHybrid — per-line MESI/Dragon switching driven by the
//     locality classifier (private-mode sharers receive Dragon word
//     updates, remote-mode sharers are MESI-invalidated), in hybrid.go.

// ProtocolKind names a coherence protocol.
type ProtocolKind string

// Protocol kinds. The empty string selects ProtocolAdaptive.
const (
	ProtocolAdaptive ProtocolKind = "adaptive"
	ProtocolMESI     ProtocolKind = "mesi"
	ProtocolDragon   ProtocolKind = "dragon"
	ProtocolDLS      ProtocolKind = "dls"
	ProtocolNeat     ProtocolKind = "neat"
	ProtocolHybrid   ProtocolKind = "hybrid"
)

// ProtocolKinds returns the protocol kinds, sorted.
func ProtocolKinds() []ProtocolKind {
	return []ProtocolKind{
		ProtocolAdaptive, ProtocolDLS, ProtocolDragon,
		ProtocolHybrid, ProtocolMESI, ProtocolNeat,
	}
}

// policy is a protocol's decision logic on the shared directory machine.
type policy interface {
	// resolve is the home's decision for one request, reached by dirMiss
	// at time t once the home holds the line (entry is nil without a
	// directory): owner fetch, invalidation or update fan-out, then a line
	// grant or a word reply. It returns the time the reply reaches the
	// requester, the part of the elapsed time spent on the sharers, and the
	// requester's new history with the line (hCached or hRemote).
	resolve(c *coreState, kind mem.AccessKind, la mem.Addr, home int, entry *dirEntry,
		l2line *cache.Line, upgrade bool, t mem.Cycle) (tEnd, sharersLat mem.Cycle, h uint8)
	// dropped is the directory's reaction when tile id's copy leaves for
	// the given cause, util being the copy's utilization counter.
	dropped(entry *dirEntry, id int, util uint32, why dropCause)
}

// newProtocol builds the directory machine s runs for cfg's kind, which
// Config.Validate has checked: its capability flags, its sharer pointers
// and classifier slots per directory entry and its policy. Every kind but
// adaptive (ACKwise-p) and Neat (one pointer) keeps a full map; adaptive
// and hybrid classify.
func newProtocol(s *Simulator, cfg Config) *dirProtocol {
	d := &dirProtocol{Simulator: s, pointers: cfg.Cores}
	clsSlots := core.Slots(cfg.Cores, cfg.ClassifierK)
	switch kind := cfg.protocolKind(); kind {
	case ProtocolAdaptive:
		d.wordRequests, d.clsSlots = true, clsSlots
		d.pointers = cfg.AckwisePointers
		d.pol = adaptiveProtocol{d}
	case ProtocolMESI:
		d.pol = mesiProtocol{d}
	case ProtocolDragon:
		d.wordRequests = true
		d.pol = dragonProtocol{d}
	case ProtocolDLS:
		d.wordRequests, d.noDirectory = true, true
		d.pol = dlsProtocol{d}
	case ProtocolNeat:
		d.selfInvalidate = true
		d.pointers = 1
		d.pol = mesiProtocol{d}
	case ProtocolHybrid:
		d.wordRequests, d.clsSlots = true, clsSlots
		d.pol = hybridProtocol{dragonProtocol{d}}
	default:
		panic(fmt.Sprintf("sim: unknown protocol %q", kind))
	}
	return d
}

// Shared machinery. The hit path, the miss transaction and the home lookup
// below serve every protocol (l2Fill also the instruction-fetch path);
// protocol decisions are reached only through the policy.

// dataAccess executes one data read or write for core c: the
// protocol-neutral L1 hit path — reads hit in any state, writes hit on an E
// or M copy (E upgrades to M silently) — or else the protocol's miss path:
// a plain miss, or a write to an S copy (an upgrade under invalidation
// protocols, an update transaction under Dragon).
func (s *Simulator) dataAccess(c *coreState, kind mem.AccessKind, addr mem.Addr) {
	la := mem.LineOf(addr)
	line := s.tiles[c.id].l1d.Probe(la)
	if line != nil && (kind == mem.Read || line.State != lineS) {
		s.l1DataHit(c, line, kind, la)
		return
	}
	s.proto.dirMiss(c, kind, addr, line != nil)
}

// l1DataHit completes a data access that hits in the requester's L1:
// statistics, LRU touch, the silent E-to-M upgrade on writes and the L1
// access latency. line is the requester's own L1-D line for la.
func (s *Simulator) l1DataHit(c *coreState, line *cache.Line, kind mem.AccessKind, la mem.Addr) {
	c.l1d.Hits++
	line.Util++
	s.tiles[c.id].l1d.Touch(line, c.now)
	if kind == mem.Write {
		s.meter.L1DWrites++
		line.State = lineM
		line.Dirty = true
		line.Version = s.goldenWrite(la)
	} else {
		s.meter.L1DReads++
		if s.cfg.CheckValues {
			s.checkVersion("L1 read hit", la, line.Version)
		}
	}
	c.now += mem.Cycle(s.cfg.L1DLatency)
}

// dirMiss is the miss transaction every protocol shares: the L1 probe, the
// R-NUCA home lookup (with any page migration it triggers), the request to
// the home, the home lookup, then the policy's resolve step, and finally
// the miss classification, the completion-time breakdown and the core's
// clock. upgrade marks a write to the core's own S copy.
//
// Under victim replication (adaptive only) a prelude runs before the
// request is sent: a read miss with a local replica never leaves the tile,
// and a write miss drops the local replica and carries the sharership
// release to the home inside the request, for resolve to apply.
func (d *dirProtocol) dirMiss(c *coreState, kind mem.AccessKind, addr mem.Addr, upgrade bool) {
	la := mem.LineOf(addr)
	if d.cfg.VictimReplication {
		if kind == mem.Read && d.replicaRead(c, la) {
			return
		}
		d.replicaUtil, d.replicaDropped = d.dropOwnReplica(c, la)
	}
	t0 := c.now
	if kind == mem.Write {
		d.meter.L1DWrites++
	} else {
		d.meter.L1DReads++
	}

	// L1 tag probe detected the miss (or the S state of the written copy).
	t := t0 + mem.Cycle(d.cfg.L1DLatency)
	var offchip mem.Cycle
	l1l2 := t - t0

	home, recl := d.nuca.DataHome(addr, c.id)
	if recl != nil {
		d.PageMove(recl, t)
		t += mem.Cycle(d.cfg.PageMoveLatency)
		offchip += mem.Cycle(d.cfg.PageMoveLatency)
	}

	// Request message: a header flit, plus the data word on writes when
	// the protocol commits writes at the home (Section 3.6).
	reqFlits := 1
	if kind == mem.Write && d.wordRequests {
		reqFlits = 2
	}
	tArr := d.mesh.Unicast(c.id, home, reqFlits, t)
	l1l2 += tArr - t
	t = tArr

	entry, l2line, tDir, wait, fill := d.lookupEntry(home, la, t)
	offchip += fill
	l1l2 += mem.Cycle(d.cfg.L2Latency)
	t = tDir

	outcome := d.missOutcome(c, la, upgrade)

	tEnd, sharersLat, h := d.pol.resolve(c, kind, la, home, entry, l2line, upgrade, t)
	l1l2 += tEnd - t - sharersLat
	c.history.set(la, h)

	c.l1d.Record(outcome)
	c.bd.L1ToL2 += float64(l1l2)
	c.bd.L2Waiting += float64(wait)
	c.bd.L2Sharers += float64(sharersLat)
	c.bd.OffChip += float64(offchip)
	if d.cfg.CheckValues {
		if sum := l1l2 + wait + sharersLat + offchip; sum != tEnd-t0 {
			panic(fmt.Sprintf("sim: latency components %d != total %d", sum, tEnd-t0))
		}
	}
	c.now = tEnd
}

// lookupEntry walks the home slice for la at time t: it fills the L2 from
// DRAM when absent (allocating a directory entry), serializes on the
// line's busy window, and charges the L2 access. It returns the entry, the
// line, the advanced time and the wait/off-chip latency components.
// Without a directory (DLS) it reads the line only: the entry is nil and
// there is no busy window — the engine's one-transaction-at-a-time
// execution is the only ordering the single point of coherence needs.
func (d *dirProtocol) lookupEntry(home int, la mem.Addr, t mem.Cycle) (
	entry *dirEntry, l2line *cache.Line, tOut, wait, offchip mem.Cycle) {

	ht := &d.tiles[home]
	filled := false
	if l2line = ht.l2.Probe(la); l2line == nil {
		var fillDone mem.Cycle
		l2line, fillDone = d.l2Fill(home, la, t)
		offchip = fillDone - t
		t = fillDone
		filled = true
	}

	if d.noDirectory {
		return nil, l2line, t + mem.Cycle(d.cfg.L2Latency), 0, offchip
	}
	if filled {
		if ht.dir.probe(la) != nil {
			panic(fmt.Sprintf("sim: directory entry without L2 line %#x", la))
		}
		entry = ht.dir.insert(la)
	} else {
		entry = ht.dir.probe(la)
	}
	if entry == nil {
		panic(fmt.Sprintf("sim: data access to instruction line %#x", la))
	}
	if entry.busyUntil > t {
		wait = entry.busyUntil - t
		t += wait
	}
	t += mem.Cycle(d.cfg.L2Latency)
	d.meter.DirLookups++
	return entry, l2line, t, wait, offchip
}

// missOutcome classifies a miss per Section 4.4 from the core's history
// with the line.
func (s *Simulator) missOutcome(c *coreState, la mem.Addr, upgrade bool) stats.MissKind {
	if upgrade {
		return stats.MissUpgrade
	}
	h := c.history.get(la)
	switch h {
	case hNever:
		return stats.MissCold
	case hEvicted, hCached:
		return stats.MissCapacity
	case hInvalidated:
		return stats.MissSharing
	default:
		return stats.MissWord
	}
}

// tileHasCopy reports whether a tile holds the line privately — in its L1
// or, under victim replication, as a local L2 replica.
func (s *Simulator) tileHasCopy(id int, la mem.Addr) bool {
	return s.tiles[id].l1d.Probe(la) != nil || s.replicaOf(id, la) != nil
}

// l2Fill brings a line into the home L2 slice from DRAM and returns the new
// line and the time the fill completes at home. A displaced L2 victim is
// handed to the protocol's back-invalidation path.
func (s *Simulator) l2Fill(home int, la mem.Addr, t mem.Cycle) (*cache.Line, mem.Cycle) {
	ctrl := s.dram.ControllerOf(la)
	mc := s.dram.TileOf(ctrl)
	t1 := s.mesh.Unicast(home, mc, 1, t)
	t2 := s.dram.Read(ctrl, mem.LineBytes, t1)
	t3 := s.mesh.Unicast(mc, home, 9, t2)

	line, victim, evicted := s.tiles[home].l2.Insert(la)
	if evicted {
		s.proto.L2Evict(home, victim, t)
	}
	line.Version = s.dramVerGet(la)
	if s.cfg.CheckValues {
		s.checkVersion("DRAM fill", la, line.Version)
	}
	s.meter.L2LineWrites++
	return line, t3
}
