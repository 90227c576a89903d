package sim

import (
	"fmt"

	"lacc/internal/cache"
	"lacc/internal/coherence"
	"lacc/internal/mem"
)

// mesiProtocol is the classic full-map MESI directory baseline: every miss
// transfers a whole cache line, every write invalidates all other copies,
// and the directory tracks an exact sharer vector (one pointer per core —
// no ACKwise overflow, no broadcasts). There is no locality classification
// and no remote-word mode; Config.Protocol and Config.ClassifierK are
// ignored. This is the "keep private caching for everything" end of the
// paper's design space, against which the adaptive protocol is judged.
type mesiProtocol struct {
	fullMapDirectory
}

func init() {
	RegisterProtocol(ProtocolMESI, func(s *Simulator) Protocol {
		return &mesiProtocol{fullMapDirectory{s}}
	})
}

// Name implements Protocol.
func (p *mesiProtocol) Name() string { return string(ProtocolMESI) }

// Finalize implements Protocol. Invalidation counts live on the Simulator
// and are already collected.
func (p *mesiProtocol) Finalize(r *Result) {}

// DataAccess executes one data read or write: reads hit in any state,
// writes hit on an E or M copy (E upgrades to M silently), and everything
// else — including the upgrade of an S copy — walks the directory at the
// home slice.
func (p *mesiProtocol) DataAccess(c *coreState, kind mem.AccessKind, addr mem.Addr) {
	p.dataAccess(p, c, kind, addr)
}

// missPath handles an L1 miss (or upgrade): it consults R-NUCA for the
// home slice and walks the MESI directory there. Every miss ends with a
// private copy in the requester's L1.
func (p *mesiProtocol) missPath(c *coreState, kind mem.AccessKind, addr mem.Addr, upgrade bool) {
	la := mem.LineOf(addr)
	t0 := c.now
	if kind == mem.Write {
		p.meter.L1DWrites++
	} else {
		p.meter.L1DReads++
	}

	// L1 tag probe detected the miss.
	t := t0 + mem.Cycle(p.cfg.L1DLatency)
	var l1l2, wait, sharersLat, offchip mem.Cycle
	l1l2 = t - t0

	home, recl := p.nuca.DataHome(addr, c.id)
	if recl != nil {
		p.PageMove(recl, t)
		t += mem.Cycle(p.cfg.PageMoveLatency)
		offchip += mem.Cycle(p.cfg.PageMoveLatency)
	}

	// MESI requests are address-only: the written data stays in the L1
	// until write-back, so the request is a single header flit.
	tArr := p.mesh.Unicast(c.id, home, 1, t)
	l1l2 += tArr - t
	t = tArr

	entry, l2line, tDir, wait, fill := p.lookupEntry(p, c, home, la, t)
	offchip += fill
	l1l2 += mem.Cycle(p.cfg.L2Latency)
	t = tDir

	outcome := p.missOutcome(c, la, upgrade)

	if kind == mem.Read {
		// The most recent data must be at the home before a read fill.
		tWB := p.fetchOwnerForRead(home, la, entry, l2line, t)
		sharersLat += tWB - t
		t = tWB
	} else {
		// Write: every other private copy is invalidated.
		tInv := p.invalidateSharers(home, la, entry, l2line, c.id, t)
		sharersLat += tInv - t
		t = tInv
	}

	p.tiles[home].l2.Touch(l2line, t)
	entry.busyUntil = t

	tEnd := p.grantLine(c, kind, la, home, entry, l2line, upgrade, t)
	l1l2 += tEnd - t
	c.history.set(la, hCached)

	c.l1d.Record(outcome)
	c.bd.L1ToL2 += float64(l1l2)
	c.bd.L2Waiting += float64(wait)
	c.bd.L2Sharers += float64(sharersLat)
	c.bd.OffChip += float64(offchip)
	if p.cfg.CheckValues {
		if sum := l1l2 + wait + sharersLat + offchip; sum != tEnd-t0 {
			panic(fmt.Sprintf("sim: latency components %d != total %d", sum, tEnd-t0))
		}
	}
	c.now = tEnd
}

// grantLine hands a private copy (or upgraded write permission) to the
// requester and installs it in the L1, evicting as needed. It returns the
// time the reply (tail flit) reaches the requester.
func (p *mesiProtocol) grantLine(c *coreState, kind mem.AccessKind, la mem.Addr, home int,
	entry *dirEntry, l2line *cache.Line, upgrade bool, t mem.Cycle) mem.Cycle {

	if kind == mem.Write && !upgrade {
		// invalidateSharers left the line uncached: a plain Modified fill.
		if entry.sharers.Count() != 0 {
			panic(fmt.Sprintf("sim: write grant with %d live sharers", entry.sharers.Count()))
		}
		return p.grantModifiedFill(p, c, la, home, entry, l2line, t)
	}

	replyFlits := 9 // header + 8 line flits
	if upgrade {
		replyFlits = 1 // permission only; data already in the L1
	} else {
		p.meter.L2LineReads++
	}

	if kind == mem.Read {
		p.grantRead(c, entry)
	} else {
		// Upgrade: the requester sheds its own sharership and takes the
		// line Modified.
		if entry.sharers.Contains(c.id) {
			entry.sharers.Remove(c.id)
		}
		if entry.sharers.Count() != 0 {
			panic(fmt.Sprintf("sim: write grant with %d live sharers", entry.sharers.Count()))
		}
		entry.state = coherence.ModifiedState
		entry.owner = int16(c.id)
		p.meter.DirUpdates++
	}

	tEnd := p.mesh.Unicast(home, c.id, replyFlits, t)
	line := p.installLine(p, c, la, home, l2line, upgrade, tEnd)

	line.Util++
	p.tiles[c.id].l1d.Touch(line, tEnd)
	switch {
	case kind == mem.Write:
		line.State = lineM
		line.Dirty = true
		line.Version = p.goldenWrite(la)
	case entry.state == coherence.ExclusiveState:
		line.State = lineE
	default:
		line.State = lineS
	}
	if kind == mem.Read && p.cfg.CheckValues {
		p.checkVersion("private fill read", la, line.Version)
	}
	return tEnd
}
