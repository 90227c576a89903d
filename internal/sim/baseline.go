package sim

import (
	"fmt"

	"lacc/internal/cache"
	"lacc/internal/coherence"
	"lacc/internal/mem"
	"lacc/internal/nuca"
)

// fullMapDirectory is the directory substrate shared by the non-adaptive
// baseline protocols (MESI and Dragon): a full-map sharer vector — one
// pointer per core, so the set never overflows and invalidations or
// updates always multicast to exact identities — with no locality
// classifier and whole-line transfers only. Each baseline embeds it and
// supplies its own write policy (invalidate vs update).
type fullMapDirectory struct {
	*Simulator
}

// initDirEntry completes a freshly inserted classifier-free full-map
// directory entry (the sharer vector is already bound by the directory).
func (d *fullMapDirectory) initDirEntry(e *dirEntry) {
	e.owner = -1
}

// fetchOwnerForRead performs the synchronous write-back/downgrade of an E
// or M owner so the home observes the latest data. The owner keeps an S
// copy and becomes the sole registered sharer. Returns the time the data
// reaches home.
func (d *fullMapDirectory) fetchOwnerForRead(home int, la mem.Addr, entry *dirEntry,
	l2line *cache.Line, t mem.Cycle) mem.Cycle {

	if entry.state != coherence.ExclusiveState && entry.state != coherence.ModifiedState {
		return t
	}
	owner := int(entry.owner)
	tReq := d.mesh.Unicast(home, owner, 1, t)
	tReq += mem.Cycle(d.cfg.L1DLatency)
	ol := d.tiles[owner].l1d.Probe(la)
	if ol == nil {
		panic(fmt.Sprintf("sim: owner %d lost line %#x", owner, la))
	}
	flits := 1
	if ol.Dirty {
		flits = 9
		l2line.Version = ol.Version
		l2line.Dirty = true
		ol.Dirty = false
		d.meter.L2LineWrites++
	}
	ol.State = lineS
	tAck := d.mesh.Unicast(owner, home, flits, tReq)
	entry.state = coherence.SharedState
	entry.owner = -1
	entry.sharers.Clear()
	entry.sharers.Add(owner)
	d.meter.DirUpdates++
	return tAck
}

// invalidateSharers invalidates every private copy except the requester's
// (`except`, -1 for none). The full-map vector never overflows, so the
// invalidations always multicast to exact identities. Returns the time the
// last acknowledgement reaches home.
func (d *fullMapDirectory) invalidateSharers(home int, la mem.Addr, entry *dirEntry,
	l2line *cache.Line, except int, t mem.Cycle) mem.Cycle {

	switch entry.state {
	case coherence.Uncached:
		return t
	case coherence.ExclusiveState, coherence.ModifiedState:
		owner := int(entry.owner)
		if owner == except {
			return t
		}
		tReq := d.mesh.Unicast(home, owner, 1, t)
		tEnd := d.invalCopy(home, la, owner, l2line, tReq)
		entry.state = coherence.Uncached
		entry.owner = -1
		return tEnd
	}

	latest := t
	ids := d.borrowIDs(entry.sharers.Identified())
	for _, id16 := range ids {
		id := int(id16)
		if id == except {
			continue
		}
		tReq := d.mesh.Unicast(home, id, 1, t)
		tEnd := d.invalCopy(home, la, id, l2line, tReq)
		if tEnd > latest {
			latest = tEnd
		}
		entry.sharers.Remove(id)
	}
	d.returnIDs(ids)
	if entry.sharers.Count() == 0 {
		entry.state = coherence.Uncached
	}
	return latest
}

// invalCopy invalidates one tile's L1 copy at its arrival time, folding
// dirty data back into the home line, and returns when the acknowledgement
// reaches home.
func (d *fullMapDirectory) invalCopy(home int, la mem.Addr, id int,
	l2line *cache.Line, tArr mem.Cycle) mem.Cycle {

	if d.faults.DropInvalidations {
		// Seeded SWMR defect (Faults): the request is lost, the sharer's
		// copy survives, yet the caller still deregisters it at home.
		return tArr
	}
	tArr += mem.Cycle(d.cfg.L1DLatency)
	line, ok := d.tiles[id].l1d.Invalidate(la)
	if !ok {
		panic(fmt.Sprintf("sim: invalidation of absent line %#x at tile %d", la, id))
	}
	d.cores[id].history.set(la, hInvalidated)
	flits := 1
	if line.Dirty {
		flits = 9
		l2line.Version = line.Version
		l2line.Dirty = true
		d.meter.L2LineWrites++
	}
	tAck := d.mesh.Unicast(id, home, flits, tArr)
	if d.cfg.TrackUtilization {
		d.invalHist.Record(line.Util)
	}
	d.invalidations++
	d.meter.DirUpdates++
	return tAck
}

// grantRead registers the requester at the home for a read fill: the first
// reader takes the line Exclusive, later readers join the sharer vector
// (any E/M owner was downgraded beforehand).
func (d *fullMapDirectory) grantRead(c *coreState, entry *dirEntry) {
	if entry.state == coherence.Uncached {
		entry.state = coherence.ExclusiveState
		entry.owner = int16(c.id)
	} else {
		if entry.state != coherence.SharedState {
			panic(fmt.Sprintf("sim: read grant in state %v", entry.state))
		}
		entry.sharers.Add(c.id)
	}
	d.meter.DirUpdates++
}

// installLine places a granted line into the requester's L1 (evicting
// through the protocol's eviction path), marks the fill and returns the
// line. For upgrades the resident copy is returned instead.
func (d *fullMapDirectory) installLine(p Protocol, c *coreState, la mem.Addr, home int,
	l2line *cache.Line, upgrade bool, tEnd mem.Cycle) *cache.Line {

	l1 := d.tiles[c.id].l1d
	if upgrade {
		if line := l1.Probe(la); line != nil {
			return line
		}
		panic("sim: upgrade without an L1 copy")
	}
	line, victim, evicted := l1.Insert(la)
	if evicted {
		p.L1Evict(c, victim, tEnd)
	}
	d.meter.L1DWrites++ // line fill write
	line.Home = int16(home)
	line.Util = 0
	line.Version = l2line.Version
	return line
}

// grantModifiedFill hands the requester a Modified copy of a line no one
// else holds: directory to Modified/owner, 9-flit line reply, L1 install,
// local dirty write. Callers touch the home line and set the busy window
// beforehand. Returns the time the reply reaches the requester.
func (d *fullMapDirectory) grantModifiedFill(p Protocol, c *coreState, la mem.Addr, home int,
	entry *dirEntry, l2line *cache.Line, t mem.Cycle) mem.Cycle {

	entry.state = coherence.ModifiedState
	entry.owner = int16(c.id)
	d.meter.DirUpdates++
	d.meter.L2LineReads++
	tEnd := d.mesh.Unicast(home, c.id, 9, t)
	line := d.installLine(p, c, la, home, l2line, false, tEnd)
	line.Util++
	d.tiles[c.id].l1d.Touch(line, tEnd)
	line.State = lineM
	line.Dirty = true
	line.Version = d.goldenWrite(la)
	return tEnd
}

// L1Evict sends the eviction notification for a displaced L1 line: dirty
// data folds back into the home line and the directory releases the
// sharership. The core does not wait on it.
func (d *fullMapDirectory) L1Evict(c *coreState, victim cache.Line, t mem.Cycle) {
	la := victim.Addr
	home := int(victim.Home)
	flits := 1
	if victim.Dirty {
		flits = 9
	}
	d.mesh.Unicast(c.id, home, flits, t)

	ht := &d.tiles[home]
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
		d.meter.L2LineWrites++
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
	d.meter.DirUpdates++
	if d.cfg.TrackUtilization {
		d.evictHist.Record(victim.Util)
	}
	c.history.set(la, hEvicted)
}

// L2Evict back-invalidates every private copy of a displaced home line
// (the inclusive hierarchy requires it) and writes dirty data back to
// DRAM. Instruction lines have no directory entry and are dropped.
func (d *fullMapDirectory) L2Evict(home int, victim cache.Line, t mem.Cycle) {
	la := victim.Addr
	ht := &d.tiles[home]
	entry := ht.dir.probe(la)
	if entry == nil {
		return // read-only instruction replica
	}
	version := victim.Version
	dirty := victim.Dirty

	backInval := func(id int) {
		tReq := d.mesh.Unicast(home, id, 1, t)
		tReq += mem.Cycle(d.cfg.L1DLatency)
		line, ok := d.tiles[id].l1d.Invalidate(la)
		if !ok {
			panic(fmt.Sprintf("sim: back-invalidation of absent line %#x at tile %d", la, id))
		}
		d.cores[id].history.set(la, hEvicted)
		flits := 1
		if line.Dirty {
			flits = 9
			dirty = true
			if line.Version > version {
				version = line.Version
			}
		}
		d.mesh.Unicast(id, home, flits, tReq)
		if d.cfg.TrackUtilization {
			d.evictHist.Record(line.Util)
		}
	}

	switch entry.state {
	case coherence.ExclusiveState, coherence.ModifiedState:
		backInval(int(entry.owner))
	case coherence.SharedState:
		ids := d.borrowIDs(entry.sharers.Identified())
		for _, id := range ids {
			backInval(int(id))
		}
		d.returnIDs(ids)
	}
	if dirty {
		ctrl := d.dram.ControllerOf(la)
		mc := d.dram.TileOf(ctrl)
		d.mesh.Unicast(home, mc, 9, t)
		d.dram.Write(ctrl, mem.LineBytes, t)
		d.dramVerSet(la, version)
		d.meter.L2LineReads++
	}
	d.removeDirEntry(home, la, entry)
}

// PageMove applies the R-NUCA private→shared reclassification: every copy
// of the page's lines is invalidated and the lines migrate out of the old
// home slice (dirty ones via DRAM).
func (d *fullMapDirectory) PageMove(recl *nuca.Reclassification, t mem.Cycle) {
	oldHome := recl.OldHome
	ht := &d.tiles[oldHome]
	for i := 0; i < mem.PageBytes/mem.LineBytes; i++ {
		la := recl.Page + mem.Addr(i*mem.LineBytes)
		l2line := ht.l2.Probe(la)
		if l2line == nil {
			continue
		}
		entry := ht.dir.probe(la)
		if entry != nil {
			d.invalidateSharers(oldHome, la, entry, l2line, -1, t)
			d.removeDirEntry(oldHome, la, entry)
		}
		old, _ := ht.l2.Invalidate(la)
		ctrl := d.dram.ControllerOf(la)
		if old.Dirty {
			d.dram.Write(ctrl, mem.LineBytes, t)
			d.dramVerSet(la, old.Version)
			d.mesh.Unicast(oldHome, d.dram.TileOf(ctrl), 9, t)
		}
		d.meter.L2LineReads++
	}
}
