package sim

import (
	"fmt"

	"lacc/internal/cache"
	"lacc/internal/coherence"
	"lacc/internal/mem"
)

// dragonProtocol is a Dragon-style write-update directory baseline
// (McCreight's Dragon adapted from its snooping-bus origin to this
// directory/NoC substrate): a write to a line with other sharers never
// invalidates them — instead the written word is committed at the home L2
// and pushed to every sharer's L1 copy. Sharing misses therefore all but
// disappear, at the price of per-write update traffic that the workload
// may never read — the classic update-vs-invalidate trade-off the paper's
// adaptive protocol navigates dynamically.
//
// Model notes: shared lines are write-through at the home (the home copy
// is always current, so sharer copies stay clean and evictions of S copies
// are silent single-flit notifications); a sole-sharer write upgrades to
// Modified and subsequent writes stay local, exactly as in MESI. The
// directory uses the shared full-map vector (updates need exact sharer
// identities).
type dragonProtocol struct {
	fullMapDirectory
	updates uint64 // per-sharer word updates pushed
}

func init() {
	RegisterProtocol(ProtocolDragon, func(s *Simulator) Protocol {
		return &dragonProtocol{fullMapDirectory: fullMapDirectory{s}}
	})
}

// Name implements Protocol.
func (p *dragonProtocol) Name() string { return string(ProtocolDragon) }

// Finalize implements Protocol.
func (p *dragonProtocol) Finalize(r *Result) { r.UpdateWrites = p.updates }

// DataAccess executes one data read or write. Reads hit in any state and
// writes hit on an E or M copy; a write to an S copy is the update
// transaction — the line stays put, but the write must commit at the home
// and propagate to the other sharers.
func (p *dragonProtocol) DataAccess(c *coreState, kind mem.AccessKind, addr mem.Addr) {
	p.dataAccess(p, c, kind, addr)
}

// missPath handles an L1 miss or a shared-write update transaction. Reads
// behave exactly like MESI; writes never invalidate other copies.
func (p *dragonProtocol) missPath(c *coreState, kind mem.AccessKind, addr mem.Addr, upgrade bool) {
	la := mem.LineOf(addr)
	t0 := c.now
	if kind == mem.Write {
		p.meter.L1DWrites++
	} else {
		p.meter.L1DReads++
	}

	// L1 tag probe detected the miss (or the S state of the written copy).
	t := t0 + mem.Cycle(p.cfg.L1DLatency)
	var l1l2, wait, sharersLat, offchip mem.Cycle
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

	entry, l2line, tDir, wait, fill := p.lookupEntry(p, c, home, la, t)
	offchip += fill
	l1l2 += mem.Cycle(p.cfg.L2Latency)
	t = tDir

	outcome := p.missOutcome(c, la, upgrade)

	var tEnd mem.Cycle
	if kind == mem.Read {
		tWB := p.fetchOwnerForRead(home, la, entry, l2line, t)
		sharersLat += tWB - t
		t = tWB
		p.tiles[home].l2.Touch(l2line, t)
		entry.busyUntil = t
		tEnd = p.grantReadLine(c, la, home, entry, l2line, t)
		l1l2 += tEnd - t
	} else {
		var shLat mem.Cycle
		tEnd, shLat = p.writePath(c, la, home, entry, l2line, upgrade, t)
		sharersLat += shLat
		l1l2 += tEnd - t - shLat
	}
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

// grantReadLine hands a shared (or first-reader Exclusive) copy to the
// requester, exactly as MESI would.
func (p *dragonProtocol) grantReadLine(c *coreState, la mem.Addr, home int,
	entry *dirEntry, l2line *cache.Line, t mem.Cycle) mem.Cycle {

	p.grantRead(c, entry)
	p.meter.L2LineReads++
	tEnd := p.mesh.Unicast(home, c.id, 9, t)
	line := p.installLine(p, c, la, home, l2line, false, tEnd)
	line.Util++
	p.tiles[c.id].l1d.Touch(line, tEnd)
	if entry.state == coherence.ExclusiveState {
		line.State = lineE
	} else {
		line.State = lineS
	}
	if p.cfg.CheckValues {
		p.checkVersion("private fill read", la, line.Version)
	}
	return tEnd
}

// writePath commits one write at the home. A write to an unshared line
// takes (or keeps) the line Modified like MESI; a write to a shared line
// is the update transaction: the word commits at the home L2 (the home
// copy stays current) and is pushed to every other sharer's L1 copy. It
// returns the time the reply reaches the requester and the update fan-out
// latency (charged to the L2-to-sharers component).
func (p *dragonProtocol) writePath(c *coreState, la mem.Addr, home int,
	entry *dirEntry, l2line *cache.Line, upgrade bool, t mem.Cycle) (tEnd, sharersLat mem.Cycle) {

	// An E/M owner elsewhere first flushes to the home and becomes a
	// sharer; the write then proceeds as an update to it. The owner cannot
	// be the requester (its write would have hit in the L1).
	if entry.state == coherence.ExclusiveState || entry.state == coherence.ModifiedState {
		tWB := p.fetchOwnerForRead(home, la, entry, l2line, t)
		sharersLat += tWB - t
		t = tWB
	}

	switch {
	case entry.state == coherence.Uncached:
		// Sole copy anywhere: a plain Modified fill.
		p.tiles[home].l2.Touch(l2line, t)
		entry.busyUntil = t
		return p.grantModifiedFill(p, c, la, home, entry, l2line, t), sharersLat

	case upgrade && entry.sharers.Count() == 1:
		// The requester is the last remaining sharer: promote its copy to
		// Modified and write locally from now on (Dragon's Sm -> M when
		// the update would reach nobody).
		entry.sharers.Remove(c.id)
		entry.state = coherence.ModifiedState
		entry.owner = int16(c.id)
		p.meter.DirUpdates++
		p.tiles[home].l2.Touch(l2line, t)
		entry.busyUntil = t
		tEnd = p.mesh.Unicast(home, c.id, 1, t)
		line := p.tiles[c.id].l1d.Probe(la)
		if line == nil {
			panic("sim: update upgrade without an L1 copy")
		}
		line.Util++
		p.tiles[c.id].l1d.Touch(line, tEnd)
		line.State = lineM
		line.Dirty = true
		line.Version = p.goldenWrite(la)
		return tEnd, sharersLat

	default:
		// Update transaction: commit the word at the home (write-through,
		// so every S copy stays clean) and push it to the other sharers.
		ver := p.goldenWrite(la)
		l2line.Version = ver
		l2line.Dirty = true
		p.meter.L2WordWrites++
		latest := t
		for _, id16 := range entry.sharers.Identified() {
			id := int(id16)
			if id == c.id {
				continue
			}
			tU := p.mesh.Unicast(home, id, 2, t) // header + word
			tU += mem.Cycle(p.cfg.L1DLatency)
			ol := p.tiles[id].l1d.Probe(la)
			if ol == nil {
				panic(fmt.Sprintf("sim: update to absent copy %#x at tile %d", la, id))
			}
			if !p.faults.DropUpdates {
				// Seeded data-value defect (Faults): the pushed word is
				// lost and the sharer's copy keeps its stale version.
				ol.Version = ver
			}
			p.meter.L1DWrites++
			p.updates++
			tAck := p.mesh.Unicast(id, home, 1, tU)
			if tAck > latest {
				latest = tAck
			}
		}
		sharersLat += latest - t
		t = latest
		p.meter.DirUpdates++
		p.tiles[home].l2.Touch(l2line, t)
		entry.busyUntil = t

		if upgrade {
			// The requester's own S copy absorbs the word; the home's ack
			// is a single flit.
			tEnd = p.mesh.Unicast(home, c.id, 1, t)
			line := p.tiles[c.id].l1d.Probe(la)
			if line == nil {
				panic("sim: update upgrade without an L1 copy")
			}
			line.Util++
			line.Version = ver
			p.tiles[c.id].l1d.Touch(line, tEnd)
			return tEnd, sharersLat
		}
		// Write miss to a shared line: the requester joins the sharers
		// with a full line fill carrying the committed word.
		entry.sharers.Add(c.id)
		p.meter.DirUpdates++
		p.meter.L2LineReads++
		tEnd = p.mesh.Unicast(home, c.id, 9, t)
		line := p.installLine(p, c, la, home, l2line, false, tEnd)
		line.Util++
		p.tiles[c.id].l1d.Touch(line, tEnd)
		line.State = lineS
		return tEnd, sharersLat
	}
}
