package sim

import (
	"fmt"

	"lacc/internal/cache"
	"lacc/internal/coherence"
	"lacc/internal/core"
	"lacc/internal/mem"
)

// hybridProtocol is a per-line MESI/Dragon switching baseline: a full-map
// directory whose entries carry the locality classifier, used here to pick
// the write policy per sharer instead of a caching mode. A write to a
// shared line pushes Dragon word updates to private-mode sharers (their
// reuse since the last write earned the update) and MESI-invalidates
// remote-mode sharers (their copies were not worth refreshing). Each
// update push samples the sharer's utilization since the previous write
// and reclassifies it against the PCT, so a line's sharers migrate between
// update and invalidate treatment as their reuse changes — the
// update-vs-invalidate trade-off decided dynamically, but without the
// adaptive protocol's remote-word mode: every reader still caches the
// whole line.
//
// Model notes: reads behave exactly like MESI/Dragon reads; when a write's
// update fan-out reaches nobody (all other sharers were remote-mode and
// invalidated), the write degenerates to the MESI transaction, taking the
// line Modified. Shared lines are write-through at the home on the update
// path, so S copies stay clean, as under Dragon.
type hybridProtocol struct {
	fullMapDirectory
	updates uint64 // per-sharer word updates pushed
}

func init() {
	RegisterProtocol(ProtocolHybrid, func(s *Simulator) Protocol {
		// Simulator.Reset keeps a shape-compatible pool (with its slabs and
		// reclaimed classifiers) across runs; build one only when absent.
		if s.clsPool == nil || !s.clsPool.Matches(s.cfg.Cores, s.cfg.ClassifierK) {
			s.clsPool = core.NewClassifierPool(s.cfg.Cores, s.cfg.ClassifierK)
		}
		return &hybridProtocol{fullMapDirectory: fullMapDirectory{s}}
	})
}

// Name implements Protocol.
func (p *hybridProtocol) Name() string { return string(ProtocolHybrid) }

// Finalize implements Protocol.
func (p *hybridProtocol) Finalize(r *Result) { r.UpdateWrites = p.updates }

// initDirEntry completes a freshly inserted directory entry with a pristine
// classifier (all cores initially private, so a fresh line starts under
// pure Dragon update semantics). The fast core draws classifiers from the
// slab pool; the reference core allocates fresh ones.
func (p *hybridProtocol) initDirEntry(e *dirEntry) {
	e.owner = -1
	if p.reference {
		e.cls = core.NewClassifier(p.cfg.Cores, p.cfg.ClassifierK)
	} else {
		e.cls = p.clsPool.Get()
	}
}

// DataAccess executes one data read or write. Reads hit in any state and
// writes hit on an E or M copy; a write to an S copy walks the
// classifier-partitioned update/invalidate transaction at the home.
func (p *hybridProtocol) DataAccess(c *coreState, kind mem.AccessKind, addr mem.Addr) {
	p.dataAccess(p, c, kind, addr)
}

// missPath handles an L1 miss or a shared-write transaction. Reads behave
// exactly like MESI; writes partition the other sharers by classification.
func (p *hybridProtocol) missPath(c *coreState, kind mem.AccessKind, addr mem.Addr, upgrade bool) {
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
	// The requester is an active private sharer; the activity bit drives
	// the Limited-k replacement policy.
	core.Lookup(entry.cls, c.id).Active = true
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
func (p *hybridProtocol) grantReadLine(c *coreState, la mem.Addr, home int,
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

// writePath commits one write at the home. Unshared lines behave exactly
// like MESI; a write to a shared line fans out per sharer by
// classification: Dragon word updates to private-mode sharers,
// invalidations to remote-mode sharers. If no update reaches anybody the
// transaction degenerates to MESI and the requester takes the line
// Modified. Returns the time the reply reaches the requester and the
// fan-out latency (charged to the L2-to-sharers component).
func (p *hybridProtocol) writePath(c *coreState, la mem.Addr, home int,
	entry *dirEntry, l2line *cache.Line, upgrade bool, t mem.Cycle) (tEnd, sharersLat mem.Cycle) {

	// An E/M owner elsewhere first flushes to the home and becomes a
	// sharer; the write then proceeds against it. The owner cannot be the
	// requester (its write would have hit in the L1).
	if entry.state == coherence.ExclusiveState || entry.state == coherence.ModifiedState {
		tWB := p.fetchOwnerForRead(home, la, entry, l2line, t)
		sharersLat += tWB - t
		t = tWB
	}

	if entry.state == coherence.Uncached {
		// Sole copy anywhere: a plain Modified fill.
		p.tiles[home].l2.Touch(l2line, t)
		entry.busyUntil = t
		return p.grantModifiedFill(p, c, la, home, entry, l2line, t), sharersLat
	}

	if upgrade && entry.sharers.Count() == 1 {
		// The requester is the last remaining sharer: promote its copy to
		// Modified and write locally from now on.
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
	}

	// Mixed fan-out over the other sharers. The golden version advances
	// exactly once per write: on the first update push when the write stays
	// an update transaction, or at the Modified grant when it degenerates
	// to MESI.
	latest := t
	pushes := 0
	var ver uint64
	ids := p.borrowIDs(entry.sharers.Identified())
	for _, id16 := range ids {
		id := int(id16)
		if id == c.id {
			continue
		}
		if core.Lookup(entry.cls, id).Mode == core.ModeRemote {
			// Low-reuse sharer: invalidate, MESI-style.
			tReq := p.mesh.Unicast(home, id, 1, t)
			tAck := p.invalSharer(home, la, id, entry, l2line, tReq)
			if tAck > latest {
				latest = tAck
			}
			entry.sharers.Remove(id)
			continue
		}
		// High-reuse sharer: push the word, Dragon-style (header + word).
		if pushes == 0 {
			ver = p.goldenWrite(la)
		}
		pushes++
		tU := p.mesh.Unicast(home, id, 2, t)
		tU += mem.Cycle(p.cfg.L1DLatency)
		ol := p.tiles[id].l1d.Probe(la)
		if ol == nil {
			panic(fmt.Sprintf("sim: update to absent copy %#x at tile %d", la, id))
		}
		if !p.faults.DropUpdates {
			// Seeded data-value defect (Faults): the pushed word is lost
			// and the sharer's copy keeps its stale version.
			ol.Version = ver
		}
		// The utilization since the last write decides whether the next
		// write still updates this sharer; the counter restarts for the
		// new inter-write window.
		util := ol.Util
		ol.Util = 0
		p.meter.L1DWrites++
		p.updates++
		p.classify(entry, id, util, false)
		tAck := p.mesh.Unicast(id, home, 1, tU)
		if tAck > latest {
			latest = tAck
		}
	}
	p.returnIDs(ids)
	sharersLat += latest - t
	t = latest

	if pushes > 0 {
		// Update transaction: commit the word at the home (write-through,
		// so every surviving S copy stays clean).
		l2line.Version = ver
		l2line.Dirty = true
		p.meter.L2WordWrites++
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

	// Every other sharer was remote-mode and has been invalidated: the
	// write degenerates to the MESI transaction.
	if upgrade {
		if entry.sharers.Contains(c.id) {
			entry.sharers.Remove(c.id)
		}
		if entry.sharers.Count() != 0 {
			panic(fmt.Sprintf("sim: write grant with %d live sharers", entry.sharers.Count()))
		}
		entry.state = coherence.ModifiedState
		entry.owner = int16(c.id)
		p.meter.DirUpdates++
		p.tiles[home].l2.Touch(l2line, t)
		entry.busyUntil = t
		tEnd = p.mesh.Unicast(home, c.id, 1, t)
		line := p.tiles[c.id].l1d.Probe(la)
		if line == nil {
			panic("sim: upgrade without an L1 copy")
		}
		line.Util++
		p.tiles[c.id].l1d.Touch(line, tEnd)
		line.State = lineM
		line.Dirty = true
		line.Version = p.goldenWrite(la)
		return tEnd, sharersLat
	}
	if entry.sharers.Count() != 0 {
		panic(fmt.Sprintf("sim: write grant with %d live sharers", entry.sharers.Count()))
	}
	p.tiles[home].l2.Touch(l2line, t)
	entry.busyUntil = t
	return p.grantModifiedFill(p, c, la, home, entry, l2line, t), sharersLat
}

// invalSharer invalidates one remote-mode sharer's L1 copy at its arrival
// time, folding dirty data back into the home line and reclassifying the
// core on its observed utilization. Returns when the acknowledgement
// reaches home.
func (p *hybridProtocol) invalSharer(home int, la mem.Addr, id int, entry *dirEntry,
	l2line *cache.Line, tArr mem.Cycle) mem.Cycle {

	if p.faults.DropInvalidations {
		// Seeded SWMR defect (Faults): the request is lost, the sharer's
		// copy survives, yet the caller still deregisters it at home.
		return tArr
	}
	tArr += mem.Cycle(p.cfg.L1DLatency)
	line, ok := p.tiles[id].l1d.Invalidate(la)
	if !ok {
		panic(fmt.Sprintf("sim: invalidation of absent line %#x at tile %d", la, id))
	}
	p.cores[id].history.set(la, hInvalidated)
	flits := 1
	if line.Dirty {
		flits = 9
		l2line.Version = line.Version
		l2line.Dirty = true
		p.meter.L2LineWrites++
	}
	tAck := p.mesh.Unicast(id, home, flits, tArr)
	p.classify(entry, id, line.Util, false)
	if p.cfg.TrackUtilization {
		p.invalHist.Record(line.Util)
	}
	p.invalidations++
	return tAck
}

// classify applies the PCT classification to one core's observed
// utilization and counts mode transitions in both directions.
func (p *hybridProtocol) classify(entry *dirEntry, id int, util uint32, eviction bool) {
	st := core.Lookup(entry.cls, id)
	was := st.Mode
	core.Classify(p.cfg.Protocol, st, util, eviction)
	if was == core.ModePrivate && st.Mode == core.ModeRemote {
		p.demotions++
	} else if was == core.ModeRemote && st.Mode == core.ModePrivate {
		p.promotions++
	}
	p.meter.DirUpdates++
}

// L1Evict sends the eviction notification for a displaced L1 line: dirty
// data folds back into the home line, the directory releases the
// sharership and the departing core is reclassified on the victim's
// utilization.
func (p *hybridProtocol) L1Evict(c *coreState, victim cache.Line, t mem.Cycle) {
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
	p.classify(entry, c.id, victim.Util, true)
	if p.cfg.TrackUtilization {
		p.evictHist.Record(victim.Util)
	}
	c.history.set(la, hEvicted)
}
