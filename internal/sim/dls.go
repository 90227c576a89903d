package sim

import (
	"lacc/internal/cache"
	"lacc/internal/mem"
)

// dlsProtocol is a directoryless shared-LLC baseline (after the DLS
// proposal, arXiv:1206.4753): no private data caching and no directory
// state at all. Every data access is a word-granular round trip to the
// line's home L2 slice — the "remote access everything" end of the
// paper's design space, the dual of MESI's "privately cache everything".
// Sharing misses, invalidations and directory storage disappear entirely;
// the price is a network round trip on every single access, which is
// exactly the trade-off the adaptive protocol's PCT navigates per line.
//
// Model notes: the L1-D never holds data lines (every access takes the
// miss path by construction), so the shared L1 eviction path is
// unreachable and the home L2 is the single point of coherence — reads and
// writes commit there in home-arrival order. Writes carry the word with
// the request and write-allocate at the home; there are no directory
// entries, so the shared L2 eviction and page-move walks reduce to pure
// write-backs with no back-invalidation fan-out.
type dlsProtocol struct {
	*dirProtocol
}

// resolve implements policy: the word-granular access at the home L2
// slice, which reads the word or commits the written word in place. No
// directory entry exists and none is created.
func (p dlsProtocol) resolve(c *coreState, kind mem.AccessKind, la mem.Addr, home int,
	entry *dirEntry, l2line *cache.Line, upgrade bool, t mem.Cycle) (tEnd, sharersLat mem.Cycle, h uint8) {

	replyFlits := 1
	if kind == mem.Read {
		p.wordReads++
		p.meter.L2WordReads++
		if p.cfg.CheckValues {
			p.checkVersion("remote word read", la, l2line.Version)
		}
		replyFlits = 2 // header + word
	} else {
		p.wordWrites++
		p.meter.L2WordWrites++
		ver := p.goldenWrite(la)
		if !p.faults.DropWordWrites {
			// Seeded data-value defect (Faults): the word is lost at the
			// home and the line keeps its stale version.
			l2line.Version = ver
		}
		l2line.Dirty = true
	}

	p.tiles[home].l2.Touch(l2line, t)
	return p.mesh.Unicast(home, c.id, replyFlits, t), 0, hRemote
}
