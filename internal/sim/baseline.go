package sim

import (
	"fmt"

	"lacc/internal/cache"
	"lacc/internal/coherence"
	"lacc/internal/mem"
	"lacc/internal/nuca"
)

// dirProtocol is the directory machine every protocol runs on: the miss
// transaction (dirMiss, protocol.go), the one line grant and the home-side
// release path — owner fetch, invalidation over a sharer set that may be
// overflowed, L1 eviction notifications, L2 back-invalidation and R-NUCA
// page migration. A protocol is its capability flags, set by newProtocol,
// and its policy, reached through pol: what the home decides for a request
// (resolve) and what happens when a copy leaves (dropped).
//
// The sharer set has the protocol's pointers (newProtocol): ACKwise-p for
// adaptive, one pointer for Neat and a full map otherwise. A
// full-map set never overflows, so the broadcast branches below are dead
// for MESI, Dragon and hybrid. Victim-replication branches are guarded by
// Config.VictimReplication, which Config.Validate accepts only under
// adaptive.
type dirProtocol struct {
	*Simulator
	pol policy
	// wordRequests: a write request carries the written word (header +
	// word, 2 flits). Otherwise requests are address-only: the written
	// data stays in the L1 until write-back.
	wordRequests bool
	// clsSlots: directory entries carry the locality classifier, in this
	// many slots (core.Slots); 0 for the kinds that do not classify.
	clsSlots int
	// pointers: sharer pointers per directory entry; a set with more
	// sharers overflows to a count.
	pointers int
	// noDirectory: the protocol keeps no directory state (DLS), so a miss
	// reads the home L2 line only and no entry is ever allocated.
	noDirectory bool
	// selfInvalidate: a core reaching a synchronization point drops its
	// Shared lines (Neat, syncSelfInvalidate in neat.go).
	selfInvalidate bool

	// A write miss's own-replica drop under victim replication, carried
	// from dirMiss's prelude to adaptive's resolve, which clears it within
	// the same transaction: the write request announces it at the home.
	replicaDropped bool
	replicaUtil    uint32
}

// dropCause says why a private copy left its holder, for the policy's
// dropped hook.
type dropCause uint8

const (
	dropWrite     dropCause = iota // a write invalidated it
	dropEvict                      // the holder evicted it (or its replica)
	dropBackInval                  // a home L2 eviction back-invalidated it
	dropPageMove                   // an R-NUCA page migration invalidated it
)

// dropped is the classifier-free protocols' policy: the directory charges
// one update per released copy, except on L2 back-invalidation, where the
// entry is discarded anyway.
func (d *dirProtocol) dropped(entry *dirEntry, id int, util uint32, why dropCause) {
	if why != dropBackInval {
		d.meter.DirUpdates++
	}
}

// readFill is the MESI read: an E/M owner's data is first fetched to the
// home, then the requester is granted the line (Exclusive when it is the
// first reader). It returns resolve's results.
func (d *dirProtocol) readFill(c *coreState, la mem.Addr, home int,
	entry *dirEntry, l2line *cache.Line, t mem.Cycle) (tEnd, sharersLat mem.Cycle, h uint8) {

	tWB := d.fetchOwnerForRead(home, la, entry, l2line, t)
	return d.grantLine(c, mem.Read, la, home, entry, l2line, false, tWB), tWB - t, hCached
}

// grantLine closes the home's part of the transaction at t — the home
// line's LRU touch and the entry's busy window — then hands the requester a
// private copy (or, on an upgrade, write permission for the copy it holds)
// and installs it in the L1, evicting as needed. Reads register the
// requester (Exclusive for the first reader; any E/M owner was downgraded
// beforehand); writes take the line Modified once every other copy is
// gone. It returns the time the reply (tail flit) reaches the requester.
func (d *dirProtocol) grantLine(c *coreState, kind mem.AccessKind, la mem.Addr, home int,
	entry *dirEntry, l2line *cache.Line, upgrade bool, t mem.Cycle) mem.Cycle {

	d.tiles[home].l2.Touch(l2line, t)
	entry.busyUntil = t

	replyFlits := 9 // header + 8 line flits
	if upgrade {
		replyFlits = 1 // permission only; data already in the L1
	} else {
		d.meter.L2LineReads++
	}

	if kind == mem.Read {
		if entry.state == coherence.Uncached {
			entry.state = coherence.ExclusiveState
			entry.owner = int16(c.id)
		} else {
			if entry.state != coherence.SharedState {
				panic(fmt.Sprintf("sim: read grant in state %v", entry.state))
			}
			entry.sharers.Add(c.id)
		}
	} else {
		if upgrade && entry.sharers.Contains(c.id) {
			// The requester sheds its own sharership (an overflowed set's
			// broadcast re-identified it). Under victim replication its S
			// copy can instead descend from a clean-Exclusive replica
			// reinstall, in which case the home still records it as the
			// owner rather than a sharer.
			entry.sharers.Remove(c.id)
		}
		if entry.sharers.Count() != 0 {
			panic(fmt.Sprintf("sim: write grant with %d live sharers", entry.sharers.Count()))
		}
		entry.state = coherence.ModifiedState
		entry.owner = int16(c.id)
	}
	d.meter.DirUpdates++

	tEnd := d.mesh.Unicast(home, c.id, replyFlits, t)

	l1 := d.tiles[c.id].l1d
	var line *cache.Line
	if upgrade {
		if line = l1.Probe(la); line == nil {
			panic("sim: upgrade without an L1 copy")
		}
	} else {
		var victim cache.Line
		var evicted bool
		line, victim, evicted = l1.Insert(la)
		if evicted {
			d.L1Evict(c, victim, tEnd)
		}
		d.meter.L1DWrites++ // line fill write
		line.Home = int16(home)
		line.Util = 0
		line.Version = l2line.Version
	}

	line.Util++
	l1.Touch(line, tEnd)
	switch {
	case kind == mem.Write:
		line.State = lineM
		line.Dirty = true
		line.Version = d.goldenWrite(la)
	case entry.state == coherence.ExclusiveState:
		line.State = lineE
	default:
		line.State = lineS
	}
	if kind == mem.Read && d.cfg.CheckValues {
		d.checkVersion("private fill read", la, line.Version)
	}
	return tEnd
}

// fetchOwnerForRead performs the synchronous write-back/downgrade of an E
// or M owner so a read (private fill or remote word) observes the latest
// data. The owner keeps an S copy and becomes the sole registered sharer.
// Returns the time the data reaches home.
func (d *dirProtocol) fetchOwnerForRead(home int, la mem.Addr, entry *dirEntry,
	l2line *cache.Line, t mem.Cycle) mem.Cycle {

	if entry.state != coherence.ExclusiveState && entry.state != coherence.ModifiedState {
		return t
	}
	owner := int(entry.owner)
	tReq := d.mesh.Unicast(home, owner, 1, t)
	tReq += mem.Cycle(d.cfg.L1DLatency)
	// Under victim replication a clean-Exclusive owner's copy may live on
	// as a local replica instead: the home data is current, so the
	// downgrade is a single-flit acknowledgement and the replica persists
	// as a shared copy.
	flits := 1
	if ol := d.tiles[owner].l1d.Probe(la); ol != nil {
		if ol.Dirty {
			flits = 9
			l2line.Version = ol.Version
			l2line.Dirty = true
			ol.Dirty = false
			d.meter.L2LineWrites++
		}
		ol.State = lineS
	} else if d.replicaOf(owner, la) == nil {
		panic(fmt.Sprintf("sim: owner %d lost line %#x", owner, la))
	}
	tAck := d.mesh.Unicast(owner, home, flits, tReq)
	entry.state = coherence.SharedState
	entry.owner = -1
	entry.sharers.Clear()
	entry.sharers.Add(owner)
	d.meter.DirUpdates++
	return tAck
}

// invalidateSharers invalidates every private copy except the requester's
// (`except`, -1 for none), for the given cause. Identified sharers get a
// multicast; an overflowed set broadcasts and holders are discovered by
// probing. Returns the time the last acknowledgement reaches home.
func (d *dirProtocol) invalidateSharers(home int, la mem.Addr, entry *dirEntry,
	l2line *cache.Line, except int, why dropCause, t mem.Cycle) mem.Cycle {

	switch entry.state {
	case coherence.Uncached:
		return t
	case coherence.ExclusiveState, coherence.ModifiedState:
		owner := int(entry.owner)
		if owner == except {
			return t
		}
		tReq := d.mesh.Unicast(home, owner, 1, t)
		tEnd := d.invalCopy(home, la, owner, entry, l2line, why, tReq)
		entry.state = coherence.Uncached
		entry.owner = -1
		return tEnd
	}

	latest := t
	if entry.sharers.Overflowed() {
		d.bcastInvals++
		arrivals := d.mesh.BroadcastInto(d.bcastInval, home, 1, t)
		d.bcastInval = arrivals
		for id := range d.tiles {
			if id == except || !d.tileHasCopy(id, la) {
				continue
			}
			tEnd := d.invalCopy(home, la, id, entry, l2line, why, arrivals[id])
			if tEnd > latest {
				latest = tEnd
			}
		}
		keep := except >= 0 && d.tileHasCopy(except, la)
		entry.sharers.Clear()
		if keep {
			entry.sharers.Add(except)
		}
	} else {
		ids := d.borrowIDs(entry.sharers.Identified())
		for _, id16 := range ids {
			id := int(id16)
			if id == except {
				continue
			}
			tReq := d.mesh.Unicast(home, id, 1, t)
			tEnd := d.invalCopy(home, la, id, entry, l2line, why, tReq)
			if tEnd > latest {
				latest = tEnd
			}
			entry.sharers.Remove(id)
		}
		d.returnIDs(ids)
	}
	if entry.sharers.Count() == 0 {
		entry.state = coherence.Uncached
	}
	return latest
}

// invalCopy invalidates one tile's copy at its arrival time, folding dirty
// data back into the home line, and returns when the acknowledgement
// (carrying the utilization counter, Section 3.6) reaches home.
func (d *dirProtocol) invalCopy(home int, la mem.Addr, id int, entry *dirEntry,
	l2line *cache.Line, why dropCause, tArr mem.Cycle) mem.Cycle {

	if d.faults.DropInvalidations {
		// Seeded SWMR defect (Faults): the request is lost, the sharer's
		// copy survives, yet the caller still deregisters it at home.
		return tArr
	}
	tArr += mem.Cycle(d.cfg.L1DLatency)
	line, ok := d.invalidateTileCopy(id, la)
	if !ok {
		panic(fmt.Sprintf("sim: invalidation of absent copy at core %d line %#x", id, la))
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
	d.pol.dropped(entry, id, line.Util, why)
	if d.cfg.TrackUtilization {
		d.invalHist.Record(line.Util)
	}
	d.invalidations++
	return tAck
}

// releaseHolder deregisters tile id's copy at home: the owner leaves an
// E/M line uncached, a sharer leaves the set (an unidentified member of an
// overflowed set decrements the overflow count).
func releaseHolder(entry *dirEntry, id int) {
	if entry.owner == int16(id) {
		entry.state = coherence.Uncached
		entry.owner = -1
		return
	}
	entry.sharers.Remove(id)
	if entry.sharers.Count() == 0 && entry.state == coherence.SharedState {
		entry.state = coherence.Uncached
	}
}

// L1Evict sends the eviction notification (with the utilization counter and
// dirty data) for a displaced L1 line: dirty data folds back into the home
// line and the directory releases the copy. The core does not wait on it;
// network occupancy and directory state are updated at the eviction time.
func (d *dirProtocol) L1Evict(c *coreState, victim cache.Line, t mem.Cycle) {
	la := victim.Addr
	home := int(victim.Home)
	if d.cfg.VictimReplication && d.tryReplicate(c, victim, t) {
		// The victim lives on as a local replica; the tile remains a
		// sharer at home and no notification is sent.
		return
	}
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
	releaseHolder(entry, c.id)
	d.pol.dropped(entry, c.id, victim.Util, dropEvict)
	if d.cfg.TrackUtilization {
		d.evictHist.Record(victim.Util)
	}
	c.history.set(la, hEvicted)
}

// L2Evict handles a home L2 slice eviction at time t: the inclusive
// hierarchy back-invalidates every private copy (their round trips overlap
// the DRAM fill and are not charged to the requester), then dirty data
// writes back to DRAM. An overflowed sharer set broadcasts and then probes
// for holders. Instruction lines, and every line under a protocol without
// a directory, have no entry and need no back-invalidation.
func (d *dirProtocol) L2Evict(home int, victim cache.Line, t mem.Cycle) {
	la := victim.Addr
	if victim.State == lineReplica {
		// A home-line fill displaced a victim-replication replica: the
		// home directory of the replicated line must drop this tile's
		// sharership.
		d.replicaEvictions++
		d.notifyReplicaEviction(home, victim, t)
		return
	}
	version := victim.Version
	dirty := victim.Dirty

	if entry := d.tiles[home].dir.probe(la); entry != nil {
		backInval := func(id int) {
			tReq := d.mesh.Unicast(home, id, 1, t)
			tReq += mem.Cycle(d.cfg.L1DLatency)
			line, ok := d.invalidateTileCopy(id, la)
			if !ok {
				panic(fmt.Sprintf("sim: back-invalidation of absent copy at core %d line %#x", id, la))
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
			d.pol.dropped(entry, id, line.Util, dropBackInval)
			if d.cfg.TrackUtilization {
				d.evictHist.Record(line.Util)
			}
		}

		switch entry.state {
		case coherence.ExclusiveState, coherence.ModifiedState:
			backInval(int(entry.owner))
		case coherence.SharedState:
			if entry.sharers.Overflowed() {
				d.bcastEvict = d.mesh.BroadcastInto(d.bcastEvict, home, 1, t)
				d.bcastInvals++
				for id := range d.tiles {
					if d.tileHasCopy(id, la) {
						backInval(id)
					}
				}
			} else {
				ids := d.borrowIDs(entry.sharers.Identified())
				for _, id := range ids {
					backInval(int(id))
				}
				d.returnIDs(ids)
			}
		}
		d.tiles[home].dir.remove(la)
	}
	if dirty {
		ctrl := d.dram.ControllerOf(la)
		mc := d.dram.TileOf(ctrl)
		d.mesh.Unicast(home, mc, 9, t)
		d.dram.Write(ctrl, mem.LineBytes, t)
		d.dramVerSet(la, version)
		d.meter.L2LineReads++
	}
}

// PageMove applies the R-NUCA private→shared reclassification: every copy
// of the page's lines is invalidated and the lines migrate out of the old
// home slice (dirty ones via DRAM). Protocol state changes are immediate;
// the triggering access is charged PageMoveLatency by the caller.
func (d *dirProtocol) PageMove(recl *nuca.Reclassification, t mem.Cycle) {
	oldHome := recl.OldHome
	ht := &d.tiles[oldHome]
	for i := 0; i < mem.PageBytes/mem.LineBytes; i++ {
		la := recl.Page + mem.Addr(i*mem.LineBytes)
		l2line := ht.l2.Probe(la)
		if l2line == nil {
			continue
		}
		if entry := ht.dir.probe(la); entry != nil {
			d.invalidateSharers(oldHome, la, entry, l2line, -1, dropPageMove, t)
			ht.dir.remove(la)
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
