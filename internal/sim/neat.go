package sim

import (
	"fmt"

	"lacc/internal/cache"
	"lacc/internal/coherence"
	"lacc/internal/mem"
	"lacc/internal/nuca"
)

// neatProtocol is a low-complexity coherence baseline (after the Neat
// proposal, arXiv:2107.05453): MESI semantics on the access path, but with
// deliberately bounded sharer metadata — a single sharer pointer plus an
// overflow count instead of MESI's full map — and self-invalidation of
// shared copies at synchronization points. A core arriving at a barrier or
// acquiring a lock drops every Shared line from its L1 and deregisters at
// the homes, which is what lets the directory stay tiny: most sharer sets
// never outlive a synchronization epoch, and the rare overflowed set falls
// back to a broadcast exactly like ACKwise.
//
// Model notes: writes invalidate like MESI (data-race-free programs are
// coherent without waiting for the self-invalidation, so SWMR holds under
// the model checker, which steps only reads and writes); self-invalidated
// copies are clean by construction (S copies are never dirty), so the
// notification is a single header flit and the core does not wait on it.
type neatProtocol struct {
	fullMapDirectory
	selfScratch []cache.Line // victims collected by syncSelfInvalidate
}

func init() {
	RegisterProtocol(ProtocolNeat, func(s *Simulator) Protocol {
		return &neatProtocol{fullMapDirectory: fullMapDirectory{s}}
	})
}

// Name implements Protocol.
func (p *neatProtocol) Name() string { return string(ProtocolNeat) }

// Finalize implements Protocol. The self-invalidation count lives on the
// Simulator and is already collected.
func (p *neatProtocol) Finalize(r *Result) {}

// DataAccess executes one data read or write: reads hit in any state,
// writes hit on an E or M copy, and everything else walks the bounded
// directory at the home slice, exactly as MESI would.
func (p *neatProtocol) DataAccess(c *coreState, kind mem.AccessKind, addr mem.Addr) {
	p.dataAccess(p, c, kind, addr)
}

// missPath handles an L1 miss (or upgrade): it consults R-NUCA for the
// home slice and walks the bounded directory there. Every miss ends with a
// private copy in the requester's L1.
func (p *neatProtocol) missPath(c *coreState, kind mem.AccessKind, addr mem.Addr, upgrade bool) {
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

	// Requests are address-only: the written data stays in the L1 until
	// write-back, so the request is a single header flit.
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
func (p *neatProtocol) grantLine(c *coreState, kind mem.AccessKind, la mem.Addr, home int,
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
		// Upgrade: invalidateSharers left the requester as the sole
		// registered sharer (the overflow broadcast re-identifies it); it
		// sheds that sharership and takes the line Modified.
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

// invalidateSharers invalidates every private copy except the requester's
// (`except`, -1 for none). The bounded pointer overflows as soon as a
// second sharer registers, in which case the invalidation broadcasts and
// holders are discovered by probing, exactly like ACKwise; otherwise the
// single identified sharer gets a unicast. Returns the time the last
// acknowledgement reaches home.
func (p *neatProtocol) invalidateSharers(home int, la mem.Addr, entry *dirEntry,
	l2line *cache.Line, except int, t mem.Cycle) mem.Cycle {

	switch entry.state {
	case coherence.Uncached:
		return t
	case coherence.ExclusiveState, coherence.ModifiedState:
		owner := int(entry.owner)
		if owner == except {
			return t
		}
		tReq := p.mesh.Unicast(home, owner, 1, t)
		tEnd := p.invalCopy(home, la, owner, l2line, tReq)
		entry.state = coherence.Uncached
		entry.owner = -1
		return tEnd
	}

	latest := t
	if entry.sharers.Overflowed() {
		p.bcastInvals++
		arrivals := p.mesh.BroadcastInto(p.bcastInval, home, 1, t)
		p.bcastInval = arrivals
		for id := range p.tiles {
			if id == except || !p.tileHasCopy(id, la) {
				continue
			}
			tEnd := p.invalCopy(home, la, id, l2line, arrivals[id])
			if tEnd > latest {
				latest = tEnd
			}
		}
		keep := except >= 0 && p.tileHasCopy(except, la)
		entry.sharers.Clear()
		if keep {
			entry.sharers.Add(except)
		}
	} else {
		ids := p.borrowIDs(entry.sharers.Identified())
		for _, id16 := range ids {
			id := int(id16)
			if id == except {
				continue
			}
			tReq := p.mesh.Unicast(home, id, 1, t)
			tEnd := p.invalCopy(home, la, id, l2line, tReq)
			if tEnd > latest {
				latest = tEnd
			}
			entry.sharers.Remove(id)
		}
		p.returnIDs(ids)
	}
	if entry.sharers.Count() == 0 {
		entry.state = coherence.Uncached
	}
	return latest
}

// syncSelfInvalidate drops every Shared line from the core's L1 when it
// reaches a synchronization point (barrier arrival or lock acquisition)
// and deregisters the copies at their homes. S copies are clean by
// construction, so each notification is a fire-and-forget header flit the
// core does not wait on; owned (E/M) lines stay put — the owner's writes
// are already globally visible through the directory.
func (p *neatProtocol) syncSelfInvalidate(c *coreState) {
	p.selfScratch = p.selfScratch[:0]
	l1 := p.tiles[c.id].l1d
	l1.ForEach(func(l *cache.Line) {
		if l.State == lineS {
			p.selfScratch = append(p.selfScratch, *l)
		}
	})
	for i := range p.selfScratch {
		v := &p.selfScratch[i]
		la, home := v.Addr, int(v.Home)
		l1.Invalidate(la)
		c.history.set(la, hInvalidated)
		p.mesh.Unicast(c.id, home, 1, c.now)
		entry := p.tiles[home].dir.probe(la)
		if entry != nil && entry.state == coherence.SharedState {
			entry.sharers.Remove(c.id)
			if entry.sharers.Count() == 0 {
				entry.state = coherence.Uncached
			}
			p.meter.DirUpdates++
		} else if entry == nil {
			panic(fmt.Sprintf("sim: self-invalidation of line %#x without directory entry", la))
		}
		p.selfInvals++
	}
}

// L1Evict sends the eviction notification for a displaced L1 line: dirty
// data folds back into the home line and the directory releases the
// sharership. Unlike the full-map baselines, the sharer may be an
// unidentified member of an overflowed set, whose Remove decrements the
// overflow count.
func (p *neatProtocol) L1Evict(c *coreState, victim cache.Line, t mem.Cycle) {
	la := victim.Addr
	home := int(victim.Home)
	flits := 1
	if victim.Dirty {
		flits = 9
	}
	p.mesh.Unicast(c.id, home, flits, t)

	ht := &p.tiles[home]
	entry := ht.dir.probe(la)
	if entry == nil {
		panic(fmt.Sprintf("sim: eviction of line %#x without directory entry", la))
	}
	l2line := ht.l2.Probe(la)
	if l2line == nil {
		panic(fmt.Sprintf("sim: eviction of line %#x absent from inclusive L2", la))
	}
	if victim.Dirty {
		l2line.Version = victim.Version
		l2line.Dirty = true
		p.meter.L2LineWrites++
	}
	if entry.owner == int16(c.id) {
		entry.state = coherence.Uncached
		entry.owner = -1
	} else {
		entry.sharers.Remove(c.id)
		if entry.sharers.Count() == 0 && entry.state == coherence.SharedState {
			entry.state = coherence.Uncached
		}
	}
	p.meter.DirUpdates++
	if p.cfg.TrackUtilization {
		p.evictHist.Record(victim.Util)
	}
	c.history.set(la, hEvicted)
}

// L2Evict back-invalidates every private copy of a displaced home line and
// writes dirty data back to DRAM. An overflowed sharer set broadcasts and
// probes for holders, like ACKwise; instruction lines have no directory
// entry and are dropped.
func (p *neatProtocol) L2Evict(home int, victim cache.Line, t mem.Cycle) {
	la := victim.Addr
	ht := &p.tiles[home]
	entry := ht.dir.probe(la)
	if entry == nil {
		return // read-only instruction replica
	}
	version := victim.Version
	dirty := victim.Dirty

	backInval := func(id int) {
		tReq := p.mesh.Unicast(home, id, 1, t)
		tReq += mem.Cycle(p.cfg.L1DLatency)
		line, ok := p.tiles[id].l1d.Invalidate(la)
		if !ok {
			panic(fmt.Sprintf("sim: back-invalidation of absent line %#x at tile %d", la, id))
		}
		p.cores[id].history.set(la, hEvicted)
		flits := 1
		if line.Dirty {
			flits = 9
			dirty = true
			if line.Version > version {
				version = line.Version
			}
		}
		p.mesh.Unicast(id, home, flits, tReq)
		if p.cfg.TrackUtilization {
			p.evictHist.Record(line.Util)
		}
	}

	switch entry.state {
	case coherence.ExclusiveState, coherence.ModifiedState:
		backInval(int(entry.owner))
	case coherence.SharedState:
		if entry.sharers.Overflowed() {
			p.bcastEvict = p.mesh.BroadcastInto(p.bcastEvict, home, 1, t)
			p.bcastInvals++
			for id := range p.tiles {
				if p.tileHasCopy(id, la) {
					backInval(id)
				}
			}
		} else {
			ids := p.borrowIDs(entry.sharers.Identified())
			for _, id := range ids {
				backInval(int(id))
			}
			p.returnIDs(ids)
		}
	}
	if dirty {
		ctrl := p.dram.ControllerOf(la)
		mc := p.dram.TileOf(ctrl)
		p.mesh.Unicast(home, mc, 9, t)
		p.dram.Write(ctrl, mem.LineBytes, t)
		p.dramVerSet(la, version)
		p.meter.L2LineReads++
	}
	p.removeDirEntry(home, la, entry)
}

// PageMove applies the R-NUCA private→shared reclassification through the
// overflow-aware invalidation path (the embedded full-map PageMove would
// miss unidentified sharers of an overflowed set).
func (p *neatProtocol) PageMove(recl *nuca.Reclassification, t mem.Cycle) {
	oldHome := recl.OldHome
	ht := &p.tiles[oldHome]
	for i := 0; i < mem.PageBytes/mem.LineBytes; i++ {
		la := recl.Page + mem.Addr(i*mem.LineBytes)
		l2line := ht.l2.Probe(la)
		if l2line == nil {
			continue
		}
		entry := ht.dir.probe(la)
		if entry != nil {
			p.invalidateSharers(oldHome, la, entry, l2line, -1, t)
			p.removeDirEntry(oldHome, la, entry)
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
