package sim

import (
	"lacc/internal/cache"
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
// path, so S copies stay clean, as under Dragon. The rest of the write
// path is Dragon's.
type hybridProtocol struct {
	dragonProtocol
}

// resolve implements policy. Reads behave exactly like MESI; a write
// to a shared line fans out per sharer by classification: Dragon word
// updates to private-mode sharers, invalidations to remote-mode sharers.
// If no update reaches anybody the transaction degenerates to MESI and the
// requester takes the line Modified.
func (p hybridProtocol) resolve(c *coreState, kind mem.AccessKind, la mem.Addr, home int,
	entry *dirEntry, l2line *cache.Line, upgrade bool, t mem.Cycle) (tEnd, sharersLat mem.Cycle, h uint8) {

	if kind == mem.Read {
		tEnd, sharersLat, _ = p.readFill(c, la, home, entry, l2line, t)
	} else {
		tEnd, sharersLat = p.write(c, la, home, entry, l2line, upgrade, t)
	}
	// The requester is an active private sharer; the activity bit drives
	// the Limited-k replacement policy.
	core.Lookup(&entry.cls, c.id).Active = true
	return tEnd, sharersLat, hCached
}

// write is the classifier-partitioned write transaction. The golden
// version advances exactly once per write: on the first update push when
// the write stays an update transaction, or at the Modified grant when it
// degenerates to MESI.
func (p hybridProtocol) write(c *coreState, la mem.Addr, home int, entry *dirEntry,
	l2line *cache.Line, upgrade bool, t mem.Cycle) (tEnd, sharersLat mem.Cycle) {

	tFan, tEnd, done := p.writeHead(c, la, home, entry, l2line, upgrade, t)
	if done {
		return tEnd, tFan - t
	}
	latest := tFan
	pushes := 0
	var ver uint64
	ids := p.borrowIDs(entry.sharers.Identified())
	for _, id16 := range ids {
		id := int(id16)
		if id == c.id {
			continue
		}
		var tAck mem.Cycle
		if core.Lookup(&entry.cls, id).Mode == core.ModeRemote {
			// Low-reuse sharer: invalidate, MESI-style.
			tReq := p.mesh.Unicast(home, id, 1, tFan)
			tAck = p.invalCopy(home, la, id, entry, l2line, dropWrite, tReq)
			entry.sharers.Remove(id)
		} else {
			// High-reuse sharer: push the word, Dragon-style.
			if pushes == 0 {
				ver = p.goldenWrite(la)
			}
			pushes++
			var ol *cache.Line
			tAck, ol = p.pushUpdate(home, la, id, ver, tFan)
			// The utilization since the last write decides whether the
			// next write still updates this sharer; the counter restarts
			// for the new inter-write window.
			util := ol.Util
			ol.Util = 0
			p.classify(entry, id, util, false)
		}
		if tAck > latest {
			latest = tAck
		}
	}
	p.returnIDs(ids)

	if pushes > 0 {
		return p.commitUpdate(c, la, home, entry, l2line, ver, upgrade, latest), latest - t
	}
	// Every other sharer was remote-mode and has been invalidated: the
	// write degenerates to the MESI transaction.
	return p.grantLine(c, mem.Write, la, home, entry, l2line, upgrade, latest), latest - t
}

// dropped implements policy: a copy leaving through a write
// invalidation or the holder's eviction reclassifies the core on its
// observed utilization. Page migration only charges the directory update,
// and L2 back-invalidation neither (the entry is discarded) — the
// full-map behaviour hybrid inherits.
func (p hybridProtocol) dropped(entry *dirEntry, id int, util uint32, why dropCause) {
	switch why {
	case dropWrite, dropEvict:
		p.classify(entry, id, util, why == dropEvict)
	case dropPageMove:
		p.meter.DirUpdates++
	}
}

// classify applies the PCT classification to one core's observed
// utilization and counts mode transitions in both directions.
func (p hybridProtocol) classify(entry *dirEntry, id int, util uint32, eviction bool) {
	st := core.Lookup(&entry.cls, id)
	was := st.Mode
	core.Classify(p.cfg.Protocol, st, util, eviction)
	if was == core.ModePrivate && st.Mode == core.ModeRemote {
		p.demotions++
	} else if was == core.ModeRemote && st.Mode == core.ModePrivate {
		p.promotions++
	}
	p.meter.DirUpdates++
}
