package sim

import (
	"fmt"

	"lacc/internal/cache"
	"lacc/internal/coherence"
)

// neatProtocol is a low-complexity coherence baseline (after the Neat
// proposal, arXiv:2107.05453): MESI on the access path, plus deliberately
// bounded sharer metadata — a single sharer pointer plus an overflow count
// instead of MESI's full map (dirPointersFor) — plus self-invalidation of
// shared copies at synchronization points. A core arriving at a barrier or
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
type neatProtocol struct {
	mesiProtocol
	selfScratch []cache.Line // victims collected by syncSelfInvalidate
}

func init() {
	RegisterProtocol(ProtocolNeat, func(s *Simulator) Protocol {
		p := &neatProtocol{}
		p.dirProtocol = dirProtocol{Simulator: s, pol: p, kind: ProtocolNeat}
		return p
	})
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
