package sim

import (
	"fmt"

	"lacc/internal/cache"
	"lacc/internal/coherence"
)

// Neat is a low-complexity coherence baseline (after the Neat proposal,
// arXiv:2107.05453): MESI's policy on the access path, plus deliberately
// bounded sharer metadata — a single sharer pointer (the pointers newProtocol
// sets) plus an overflow count instead of MESI's full map — plus
// self-invalidation of shared copies at synchronization points (the
// selfInvalidate capability, which the engine's syncOp checks). A core arriving at a barrier or
// acquiring a lock drops every Shared line from its L1 and deregisters at
// the homes, which is what lets the directory stay tiny: most sharer sets
// never outlive a synchronization epoch, and the rare overflowed set falls
// back to a broadcast exactly like ACKwise (the shared release path handles
// overflowed sets).
//
// Model notes: writes invalidate like MESI (data-race-free programs are
// coherent without waiting for the self-invalidation, so SWMR holds under
// the model checker, which steps only reads and writes); self-invalidated
// copies are clean by construction (S copies are never dirty), so the
// notification is a single header flit and the core does not wait on it.

// syncSelfInvalidate drops every Shared line from the core's L1 when it
// reaches a synchronization point (barrier arrival or lock acquisition)
// and deregisters the copies at their homes. S copies are clean by
// construction, so each notification is a fire-and-forget header flit the
// core does not wait on; owned (E/M) lines stay put — the owner's writes
// are already globally visible through the directory.
func (d *dirProtocol) syncSelfInvalidate(c *coreState) {
	d.selfScratch = d.selfScratch[:0]
	l1 := d.tiles[c.id].l1d
	l1.ForEach(func(l *cache.Line) {
		if l.State == lineS {
			d.selfScratch = append(d.selfScratch, *l)
		}
	})
	for i := range d.selfScratch {
		v := &d.selfScratch[i]
		la, home := v.Addr, int(v.Home)
		l1.Invalidate(la)
		c.history.set(la, hInvalidated)
		d.mesh.Unicast(c.id, home, 1, c.now)
		entry := d.tiles[home].dir.probe(la)
		if entry != nil && entry.state == coherence.SharedState {
			entry.sharers.Remove(c.id)
			if entry.sharers.Count() == 0 {
				entry.state = coherence.Uncached
			}
			d.meter.DirUpdates++
		} else if entry == nil {
			panic(fmt.Sprintf("sim: self-invalidation of line %#x without directory entry", la))
		}
		d.selfInvals++
	}
}
