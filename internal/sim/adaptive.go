package sim

import (
	"fmt"

	"lacc/internal/cache"
	"lacc/internal/coherence"
	"lacc/internal/core"
	"lacc/internal/mem"
)

// adaptiveProtocol is the paper's locality-aware adaptive coherence
// protocol: an ACKwise limited directory whose entries classify every
// (line, core) pair as a private sharer (full line cached in the L1) or a
// remote sharer (word-granular round trips to the shared L2), driven by
// measured utilization against the Private Caching Threshold. Requests
// carry the written word (Section 3.6), so a remote write commits at the
// home without a line transfer.
type adaptiveProtocol struct {
	*dirProtocol
}

// resolve implements policy: per the locality classification, the
// requester either gets a private copy or performs a remote word access.
func (s adaptiveProtocol) resolve(c *coreState, kind mem.AccessKind, la mem.Addr, home int,
	entry *dirEntry, l2line *cache.Line, upgrade bool, t mem.Cycle) (tEnd, sharersLat mem.Cycle, h uint8) {

	if s.replicaDropped {
		// The write request announced the requester's replica drop.
		s.dropSharershipAtHome(entry, c.id, s.replicaUtil)
		s.replicaDropped, s.replicaUtil = false, 0
	}

	// Classifier inputs are computed before this access touches the line.
	st := core.Lookup(&entry.cls, c.id)
	var minLA mem.Cycle
	var full bool
	if s.cfg.Protocol.UseTimestamp {
		minLA, full = s.tiles[c.id].l1d.MinLastAccess(la)
	}
	hasInv := s.tiles[c.id].l1d.HasInvalidWay(la)
	tsPass := false
	if s.cfg.Protocol.UseTimestamp {
		tsPass = !full || l2line.LastAccess > minLA
	}

	t0 := t
	grant := false
	replyFlits := 1
	if kind == mem.Read {
		if st.Mode == core.ModePrivate {
			grant = true
		} else {
			// The most recent data must be at the L2 before a word read.
			t = s.fetchOwnerForRead(home, la, entry, l2line, t)
			if core.RemoteAccess(s.cfg.Protocol, st, tsPass, hasInv) {
				grant = true
				s.promotions++
			} else {
				s.wordReads++
				s.meter.L2WordReads++
				s.meter.DirUpdates++
				if s.cfg.CheckValues {
					s.checkVersion("remote word read", la, l2line.Version)
				}
				replyFlits = 2 // header + word
			}
		}
		if grant {
			// A private read fill also needs the owner's data.
			t = s.fetchOwnerForRead(home, la, entry, l2line, t)
		}
	} else {
		// Write: all private copies except the requester's are invalidated
		// regardless of the requester's mode (Section 3.2).
		t = s.invalidateSharers(home, la, entry, l2line, c.id, dropWrite, t)
		// Remote utilization of every other remote sharer resets to 0.
		entry.cls.DeactivateRemoteExcept(c.id)
		s.meter.DirUpdates++
		if st.Mode == core.ModePrivate {
			grant = true
		} else if core.RemoteAccess(s.cfg.Protocol, st, tsPass, hasInv) {
			grant = true
			s.promotions++
		} else {
			// Remote word write commits at the L2. If the requester still
			// holds an S copy from when it was a private sharer (possible
			// when the Limited-k classifier lost its entry and the majority
			// vote says remote), that stale copy is invalidated by the
			// reply; the drop is local and costs no extra message.
			if upgrade {
				s.dropRequesterCopy(c, la, entry)
			}
			s.wordWrites++
			s.meter.L2WordWrites++
			s.meter.DirUpdates++
			l2line.Version = s.goldenWrite(la)
			l2line.Dirty = true
			replyFlits = 1 // ack
		}
	}
	if grant {
		// The requester is (now) an active private sharer; the activity bit
		// drives the Limited-k replacement policy (Section 3.4).
		st.Active = true
		return s.grantLine(c, kind, la, home, entry, l2line, upgrade, t), t - t0, hCached
	}
	s.tiles[home].l2.Touch(l2line, t)
	entry.busyUntil = t
	return s.mesh.Unicast(home, c.id, replyFlits, t), t - t0, hRemote
}

// dropRequesterCopy invalidates the requester's own stale S copy when its
// write is serviced as a remote word access, updating directory state and
// classification exactly as a remote invalidation would.
func (s adaptiveProtocol) dropRequesterCopy(c *coreState, la mem.Addr, entry *dirEntry) {
	line, ok := s.tiles[c.id].l1d.Invalidate(la)
	if !ok {
		panic(fmt.Sprintf("sim: upgrade without an L1 copy at core %d line %#x", c.id, la))
	}
	entry.sharers.Remove(c.id)
	if entry.sharers.Count() == 0 && entry.state == coherence.SharedState {
		entry.state = coherence.Uncached
	}
	s.dropped(entry, c.id, line.Util, dropWrite)
	if s.cfg.TrackUtilization {
		s.invalHist.Record(line.Util)
	}
	s.invalidations++
}

// dropped implements policy: every copy leaving its L1 applies the
// PCT classification (Section 3.2) and counts demotions. Evictions —
// including L2 back-invalidations — classify as evictions; write
// invalidations and page migrations as invalidations.
func (s adaptiveProtocol) dropped(entry *dirEntry, id int, util uint32, why dropCause) {
	st := core.Lookup(&entry.cls, id)
	was := st.Mode
	core.Classify(s.cfg.Protocol, st, util, why == dropEvict || why == dropBackInval)
	if was == core.ModePrivate && st.Mode == core.ModeRemote {
		s.demotions++
	}
	s.meter.DirUpdates++
}
