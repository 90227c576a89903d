package sim

import (
	"lacc/internal/cache"
	"lacc/internal/mem"
)

// mesiProtocol is the classic full-map MESI directory baseline: every miss
// transfers a whole cache line, every write invalidates all other copies,
// and the directory tracks an exact sharer vector (one pointer per core —
// no ACKwise overflow, no broadcasts). There is no locality classification
// and no remote-word mode; Config.Protocol and Config.ClassifierK are
// ignored. This is the "keep private caching for everything" end of the
// paper's design space, against which the adaptive protocol is judged.
// Requests are address-only: the written data stays in the L1 until
// write-back.
//
// Neat runs this policy too; its difference is in the machine (neat.go).
type mesiProtocol struct {
	*dirProtocol
}

// resolve implements policy. A read first fetches the latest data
// from an E/M owner; a write invalidates every other private copy. Every
// miss then ends with a private copy in the requester's L1.
func (p mesiProtocol) resolve(c *coreState, kind mem.AccessKind, la mem.Addr, home int,
	entry *dirEntry, l2line *cache.Line, upgrade bool, t mem.Cycle) (tEnd, sharersLat mem.Cycle, h uint8) {

	if kind == mem.Read {
		return p.readFill(c, la, home, entry, l2line, t)
	}
	tInv := p.invalidateSharers(home, la, entry, l2line, c.id, dropWrite, t)
	return p.grantLine(c, kind, la, home, entry, l2line, upgrade, tInv), tInv - t, hCached
}
