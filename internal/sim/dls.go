package sim

import (
	"fmt"

	"lacc/internal/cache"
	"lacc/internal/mem"
	"lacc/internal/nuca"
)

// dlsProtocol is a directoryless shared-LLC baseline (after the DLS
// proposal, arXiv:1206.4753): no private data caching and no directory
// state at all. Every data access is a word-granular round trip to the
// line's home L2 slice — the "remote access everything" end of the
// paper's design space, the dual of MESI's "privately cache everything".
// Sharing misses, invalidations and directory storage disappear entirely;
// the price is a network round trip on every single access, which is
// exactly the trade-off the adaptive protocol's PCT navigates per line.
//
// Model notes: the L1-D never holds data lines (every access takes the
// miss path by construction), so L1Evict is unreachable and the home L2
// is the single point of coherence — reads and writes commit there in
// home-arrival order. Writes carry the word with the request and
// write-allocate at the home; there are no directory entries, so L2
// evictions and page moves are pure write-backs with no back-invalidation
// fan-out.
type dlsProtocol struct {
	*Simulator
}

func init() {
	RegisterProtocol(ProtocolDLS, func(s *Simulator) Protocol {
		return &dlsProtocol{s}
	})
}

// Name implements Protocol.
func (p *dlsProtocol) Name() string { return string(ProtocolDLS) }

// Finalize implements Protocol. The word-access counters live on the
// Simulator and are already collected.
func (p *dlsProtocol) Finalize(r *Result) {}

// initDirEntry implements protocolCore. DLS never walks lookupEntry, so no
// directory entry can ever be allocated on its behalf.
func (p *dlsProtocol) initDirEntry(e *dirEntry) {
	panic("sim: dls allocates no directory entries")
}

// DataAccess executes one data read or write. The L1 probe in the shared
// hit path never matches (DLS installs no data lines), so every access
// walks missPath as a remote word transaction at the home slice.
func (p *dlsProtocol) DataAccess(c *coreState, kind mem.AccessKind, addr mem.Addr) {
	p.dataAccess(p, c, kind, addr)
}

// missPath performs the word-granular access at the home L2 slice: fill
// from DRAM if absent, then read the word or commit the written word
// in place. No directory entry exists and none is created.
func (p *dlsProtocol) missPath(c *coreState, kind mem.AccessKind, addr mem.Addr, upgrade bool) {
	la := mem.LineOf(addr)
	t0 := c.now
	if kind == mem.Write {
		p.meter.L1DWrites++
	} else {
		p.meter.L1DReads++
	}

	// L1 tag probe detected the miss (always: DLS installs no data lines).
	t := t0 + mem.Cycle(p.cfg.L1DLatency)
	var l1l2, offchip mem.Cycle
	l1l2 = t - t0

	home, recl := p.nuca.DataHome(addr, c.id)
	if recl != nil {
		p.PageMove(recl, t)
		t += mem.Cycle(p.cfg.PageMoveLatency)
		offchip += mem.Cycle(p.cfg.PageMoveLatency)
	}

	// The written word travels with the request (header + word); reads are
	// address-only.
	reqFlits := 1
	if kind == mem.Write {
		reqFlits = 2
	}
	tArr := p.mesh.Unicast(c.id, home, reqFlits, t)
	l1l2 += tArr - t
	t = tArr

	// There is no directory entry and hence no busy window: the engine's
	// one-transaction-at-a-time execution is the only ordering the single
	// point of coherence needs.
	ht := &p.tiles[home]
	var l2line *cache.Line
	if hl := c.l2Hint; c.l2HintTile == int32(home) && ht.l2.Holds(hl, la) {
		l2line = hl
	} else if l2line = ht.l2.Probe(la); l2line != nil {
		c.l2Hint, c.l2HintTile = l2line, int32(home)
	}
	if l2line == nil {
		var fillDone mem.Cycle
		l2line, fillDone = p.l2Fill(home, la, t)
		offchip += fillDone - t
		t = fillDone
	}
	t += mem.Cycle(p.cfg.L2Latency)
	l1l2 += mem.Cycle(p.cfg.L2Latency)

	outcome := p.missOutcome(c, la, upgrade)

	replyFlits := 1
	if kind == mem.Read {
		p.wordReads++
		p.meter.L2WordReads++
		if p.cfg.CheckValues {
			p.checkVersion("remote word read", la, l2line.Version)
		}
		replyFlits = 2 // header + word
	} else {
		p.wordWrites++
		p.meter.L2WordWrites++
		ver := p.goldenWrite(la)
		if !p.faults.DropWordWrites {
			// Seeded data-value defect (Faults): the word is lost at the
			// home and the line keeps its stale version.
			l2line.Version = ver
		}
		l2line.Dirty = true
	}

	ht.l2.Touch(l2line, t)
	tEnd := p.mesh.Unicast(home, c.id, replyFlits, t)
	l1l2 += tEnd - t
	c.history.set(la, hRemote)

	c.l1d.Record(outcome)
	c.bd.L1ToL2 += float64(l1l2)
	c.bd.OffChip += float64(offchip)
	if p.cfg.CheckValues {
		if sum := l1l2 + offchip; sum != tEnd-t0 {
			panic(fmt.Sprintf("sim: latency components %d != total %d", sum, tEnd-t0))
		}
	}
	c.now = tEnd
}

// L1Evict implements Protocol. The L1-D never holds data lines under DLS
// (instruction victims are dropped by the fetch path without notifying the
// protocol), so displacement notifications cannot occur.
func (p *dlsProtocol) L1Evict(c *coreState, victim cache.Line, t mem.Cycle) {
	panic("sim: dls caches no private lines")
}

// L2Evict implements Protocol: with no private copies anywhere there is
// nothing to back-invalidate — a dirty victim writes back to DRAM and a
// clean one (data or instruction replica) is dropped.
func (p *dlsProtocol) L2Evict(home int, victim cache.Line, t mem.Cycle) {
	if !victim.Dirty {
		return
	}
	la := victim.Addr
	ctrl := p.dram.ControllerOf(la)
	p.mesh.Unicast(home, p.dram.TileOf(ctrl), 9, t)
	p.dram.Write(ctrl, mem.LineBytes, t)
	p.dramVerSet(la, victim.Version)
	p.meter.L2LineReads++
}

// PageMove applies the R-NUCA private→shared reclassification: the page's
// lines migrate out of the old home slice (dirty ones via DRAM). With no
// directory and no private copies there is no invalidation fan-out.
func (p *dlsProtocol) PageMove(recl *nuca.Reclassification, t mem.Cycle) {
	oldHome := recl.OldHome
	ht := &p.tiles[oldHome]
	for i := 0; i < mem.PageBytes/mem.LineBytes; i++ {
		la := recl.Page + mem.Addr(i*mem.LineBytes)
		if ht.l2.Probe(la) == nil {
			continue
		}
		old, _ := ht.l2.Invalidate(la)
		ctrl := p.dram.ControllerOf(la)
		if old.Dirty {
			p.dram.Write(ctrl, mem.LineBytes, t)
			p.dramVerSet(la, old.Version)
			p.mesh.Unicast(oldHome, p.dram.TileOf(ctrl), 9, t)
		}
		p.meter.L2LineReads++
	}
}
