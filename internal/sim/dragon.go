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
// identities). The written word travels with the request (header + word).
type dragonProtocol struct {
	*dirProtocol
}

// resolve implements policy. Reads behave exactly like MESI; writes
// never invalidate other copies: the update transaction commits the word
// at the home L2 (the home copy stays current) and pushes it to every
// other sharer's L1 copy.
func (p dragonProtocol) resolve(c *coreState, kind mem.AccessKind, la mem.Addr, home int,
	entry *dirEntry, l2line *cache.Line, upgrade bool, t mem.Cycle) (tEnd, sharersLat mem.Cycle, h uint8) {

	if kind == mem.Read {
		return p.readFill(c, la, home, entry, l2line, t)
	}
	tFan, tEnd, done := p.writeHead(c, la, home, entry, l2line, upgrade, t)
	if done {
		return tEnd, tFan - t, hCached
	}
	ver := p.goldenWrite(la)
	latest := tFan
	for _, id16 := range entry.sharers.Identified() {
		if id := int(id16); id != c.id {
			if tAck, _ := p.pushUpdate(home, la, id, ver, tFan); tAck > latest {
				latest = tAck
			}
		}
	}
	return p.commitUpdate(c, la, home, entry, l2line, ver, upgrade, latest), latest - t, hCached
}

// writeHead starts a write under the update protocols. An E/M owner
// elsewhere first flushes to the home and becomes a sharer; the write then
// proceeds against it (the owner cannot be the requester: its write would
// have hit in the L1). A write that reaches no other copy — the sole copy
// anywhere, or the requester as the last remaining sharer (Dragon's
// Sm -> M when the update would reach nobody) — takes the line Modified
// and writes locally from now on. It returns the time the fan-out may
// start and, when done, the time the grant reaches the requester.
func (p dragonProtocol) writeHead(c *coreState, la mem.Addr, home int, entry *dirEntry,
	l2line *cache.Line, upgrade bool, t mem.Cycle) (tFan, tEnd mem.Cycle, done bool) {

	tFan = p.fetchOwnerForRead(home, la, entry, l2line, t)
	if entry.state == coherence.Uncached || upgrade && entry.sharers.Count() == 1 {
		return tFan, p.grantLine(c, mem.Write, la, home, entry, l2line, upgrade, tFan), true
	}
	return tFan, 0, false
}

// pushUpdate pushes the written word to sharer id's L1 copy (header +
// word) and returns when the acknowledgement reaches home, with the
// updated copy.
func (p dragonProtocol) pushUpdate(home int, la mem.Addr, id int, ver uint64, t mem.Cycle) (mem.Cycle, *cache.Line) {
	tU := p.mesh.Unicast(home, id, 2, t)
	tU += mem.Cycle(p.cfg.L1DLatency)
	ol := p.tiles[id].l1d.Probe(la)
	if ol == nil {
		panic(fmt.Sprintf("sim: update to absent copy %#x at tile %d", la, id))
	}
	if !p.faults.DropUpdates {
		// Seeded data-value defect (Faults): the pushed word is lost and
		// the sharer's copy keeps its stale version.
		ol.Version = ver
	}
	p.meter.L1DWrites++
	p.updates++
	return p.mesh.Unicast(id, home, 1, tU), ol
}

// commitUpdate ends an update transaction once the fan-out is acknowledged
// at t: the word commits at the home (write-through, so every S copy stays
// clean) and the requester either absorbs it into its own S copy, acked
// with a single flit, or — on a write miss — joins the sharers with a
// line fill carrying the committed word.
func (p dragonProtocol) commitUpdate(c *coreState, la mem.Addr, home int, entry *dirEntry,
	l2line *cache.Line, ver uint64, upgrade bool, t mem.Cycle) mem.Cycle {

	l2line.Version = ver
	l2line.Dirty = true
	p.meter.L2WordWrites++
	p.meter.DirUpdates++
	if !upgrade {
		return p.grantLine(c, mem.Read, la, home, entry, l2line, false, t)
	}
	p.tiles[home].l2.Touch(l2line, t)
	entry.busyUntil = t
	tEnd := p.mesh.Unicast(home, c.id, 1, t)
	line := p.tiles[c.id].l1d.Probe(la)
	if line == nil {
		panic("sim: update upgrade without an L1 copy")
	}
	line.Util++
	line.Version = ver
	p.tiles[c.id].l1d.Touch(line, tEnd)
	return tEnd
}
