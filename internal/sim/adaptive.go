package sim

import (
	"fmt"

	"lacc/internal/cache"
	"lacc/internal/coherence"
	"lacc/internal/core"
	"lacc/internal/mem"
	"lacc/internal/nuca"
)

// adaptiveProtocol is the paper's locality-aware adaptive coherence
// protocol: an ACKwise limited directory whose entries classify every
// (line, core) pair as a private sharer (full line cached in the L1) or a
// remote sharer (word-granular round trips to the shared L2), driven by
// measured utilization against the Private Caching Threshold. It embeds
// the Simulator and drives the protocol-neutral substrate directly.
type adaptiveProtocol struct {
	*Simulator
}

func init() {
	RegisterProtocol(ProtocolAdaptive, func(s *Simulator) Protocol {
		// Simulator.Reset keeps a shape-compatible pool (with its slabs and
		// reclaimed classifiers) across runs; build one only when absent.
		if s.clsPool == nil || !s.clsPool.Matches(s.cfg.Cores, s.cfg.ClassifierK) {
			s.clsPool = core.NewClassifierPool(s.cfg.Cores, s.cfg.ClassifierK)
		}
		return &adaptiveProtocol{s}
	})
}

// Name implements Protocol.
func (s *adaptiveProtocol) Name() string { return string(ProtocolAdaptive) }

// Finalize implements Protocol. The adaptive counters (promotions, word
// accesses, invalidations, replica activity) live on the Simulator and are
// already collected; nothing protocol-private remains.
func (s *adaptiveProtocol) Finalize(r *Result) {}

// initDirEntry completes a freshly inserted directory entry with a pristine
// classifier (all cores initially private, Figure 4). The fast core draws
// classifiers from the slab pool; the reference core allocates like the old
// implementation, so a defective classifier Reset would surface as a
// differential mismatch.
func (s *adaptiveProtocol) initDirEntry(e *dirEntry) {
	e.owner = -1
	if s.reference {
		e.cls = core.NewClassifier(s.cfg.Cores, s.cfg.ClassifierK)
	} else {
		e.cls = s.clsPool.Get()
	}
}

// DataAccess executes one data read or write, including the full protocol
// path on a miss. It advances the core's clock and accounts the latency
// into the paper's completion-time components.
func (s *adaptiveProtocol) DataAccess(c *coreState, kind mem.AccessKind, addr mem.Addr) {
	s.dataAccess(s, c, kind, addr)
}

// missPath handles an L1 miss (or upgrade): it consults R-NUCA for the home
// slice, walks the directory protocol there, and either installs a private
// copy or performs a remote word access, per the locality classification.
func (s *adaptiveProtocol) missPath(c *coreState, kind mem.AccessKind, addr mem.Addr, upgrade bool) {
	la := mem.LineOf(addr)

	// Victim replication: a read miss with a local replica never leaves
	// the tile; a write miss drops the local replica and carries the
	// sharership release to the home inside the request.
	if s.cfg.VictimReplication && kind == mem.Read && s.replicaRead(c, addr) {
		return
	}
	replicaUtil, hadReplica := uint32(0), false
	if kind == mem.Write {
		replicaUtil, hadReplica = s.dropOwnReplica(c, la)
	}

	t0 := c.now
	if kind == mem.Write {
		s.meter.L1DWrites++
	} else {
		s.meter.L1DReads++
	}

	// L1 tag probe detected the miss.
	t := t0 + mem.Cycle(s.cfg.L1DLatency)
	var l1l2, wait, sharersLat, offchip mem.Cycle
	l1l2 = t - t0

	home, recl := s.nuca.DataHome(addr, c.id)
	if recl != nil {
		s.PageMove(recl, t)
		t += mem.Cycle(s.cfg.PageMoveLatency)
		offchip += mem.Cycle(s.cfg.PageMoveLatency)
	}

	// Request message: header flit, plus the data word on writes
	// (Section 3.6: the word to be written travels with the request).
	reqFlits := 1
	if kind == mem.Write {
		reqFlits = 2
	}
	tArr := s.mesh.Unicast(c.id, home, reqFlits, t)
	l1l2 += tArr - t
	t = tArr

	entry, l2line, tDir, wait, fill := s.lookupEntry(s, c, home, la, t)
	offchip += fill
	l1l2 += mem.Cycle(s.cfg.L2Latency)
	t = tDir
	ht := &s.tiles[home]

	if hadReplica {
		// The write request announced the requester's replica drop.
		s.dropSharershipAtHome(entry, c.id, replicaUtil)
	}

	// Classifier inputs are computed before this access touches the line.
	st := core.Lookup(entry.cls, c.id)
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

	outcome := s.missOutcome(c, la, upgrade)

	grant := false
	replyFlits := 1
	if kind == mem.Read {
		if st.Mode == core.ModePrivate {
			grant = true
		} else {
			// The most recent data must be at the L2 before a word read.
			tWB := s.fetchOwnerForRead(home, la, entry, l2line, t)
			sharersLat += tWB - t
			t = tWB
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
			tWB := s.fetchOwnerForRead(home, la, entry, l2line, t)
			sharersLat += tWB - t
			t = tWB
		}
	} else {
		// Write: all private copies except the requester's are invalidated
		// regardless of the requester's mode (Section 3.2).
		tInv := s.invalidateSharers(home, la, entry, l2line, c.id, t)
		sharersLat += tInv - t
		t = tInv
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
	}

	ht.l2.Touch(l2line, t)
	entry.busyUntil = t

	var tEnd mem.Cycle
	if grant {
		tEnd = s.grantLine(c, kind, la, home, entry, l2line, upgrade, t)
		l1l2 += tEnd - t
		c.history.set(la, hCached)
	} else {
		tEnd = s.mesh.Unicast(home, c.id, replyFlits, t)
		l1l2 += tEnd - t
		c.history.set(la, hRemote)
	}

	c.l1d.Record(outcome)
	c.bd.L1ToL2 += float64(l1l2)
	c.bd.L2Waiting += float64(wait)
	c.bd.L2Sharers += float64(sharersLat)
	c.bd.OffChip += float64(offchip)
	if s.cfg.CheckValues {
		if sum := l1l2 + wait + sharersLat + offchip; sum != tEnd-t0 {
			panic(fmt.Sprintf("sim: latency components %d != total %d", sum, tEnd-t0))
		}
	}
	c.now = tEnd
}

// grantLine hands a private copy (or upgraded write permission) to the
// requester and installs it in the L1, evicting as needed. It returns the
// time the reply (tail flit) reaches the requester.
func (s *adaptiveProtocol) grantLine(c *coreState, kind mem.AccessKind, la mem.Addr, home int,
	entry *dirEntry, l2line *cache.Line, upgrade bool, t mem.Cycle) mem.Cycle {

	replyFlits := 9 // header + 8 line flits
	if upgrade {
		replyFlits = 1 // permission only; data already in the L1
	} else {
		s.meter.L2LineReads++
	}

	if kind == mem.Read {
		if entry.state == coherence.Uncached {
			entry.state = coherence.ExclusiveState
			entry.owner = int16(c.id)
		} else {
			// fetchOwnerForRead downgraded any E/M owner to Shared.
			if entry.state != coherence.SharedState {
				panic(fmt.Sprintf("sim: read grant in state %v", entry.state))
			}
			entry.sharers.Add(c.id)
		}
	} else {
		if upgrade && entry.sharers.Contains(c.id) {
			// Under victim replication the requester's S copy can descend
			// from a clean-Exclusive replica reinstall, in which case the
			// home still records it as the owner rather than a sharer.
			entry.sharers.Remove(c.id)
		}
		if entry.sharers.Count() != 0 {
			panic(fmt.Sprintf("sim: write grant with %d live sharers", entry.sharers.Count()))
		}
		entry.state = coherence.ModifiedState
		entry.owner = int16(c.id)
	}
	s.meter.DirUpdates++

	tEnd := s.mesh.Unicast(home, c.id, replyFlits, t)

	l1 := s.tiles[c.id].l1d
	var line *cache.Line
	if upgrade {
		line = l1.Probe(la)
		if line == nil {
			panic("sim: upgrade without an L1 copy")
		}
	}
	if line == nil {
		var victim cache.Line
		var evicted bool
		line, victim, evicted = l1.Insert(la)
		if evicted {
			s.L1Evict(c, victim, tEnd)
		}
		s.meter.L1DWrites++ // line fill write
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
		line.Version = s.goldenWrite(la)
	case entry.state == coherence.ExclusiveState:
		line.State = lineE
	default:
		line.State = lineS
	}
	if kind == mem.Read && s.cfg.CheckValues {
		s.checkVersion("private fill read", la, line.Version)
	}
	return tEnd
}

// fetchOwnerForRead performs the synchronous write-back/downgrade of an E
// or M owner so a read (private fill or remote word) observes the latest
// data. The owner keeps an S copy. Returns the time the data reaches home.
func (s *adaptiveProtocol) fetchOwnerForRead(home int, la mem.Addr, entry *dirEntry,
	l2line *cache.Line, t mem.Cycle) mem.Cycle {

	if entry.state != coherence.ExclusiveState && entry.state != coherence.ModifiedState {
		return t
	}
	owner := int(entry.owner)
	tReq := s.mesh.Unicast(home, owner, 1, t)
	tReq += mem.Cycle(s.cfg.L1DLatency)
	ol := s.tiles[owner].l1d.Probe(la)
	if ol == nil {
		if s.cfg.VictimReplication {
			if rl := s.tiles[owner].l2.Probe(la); rl != nil && rl.State == lineReplica {
				// The clean-Exclusive owner's copy lives on as a local
				// replica: the home data is current, so the downgrade is a
				// single-flit acknowledgement and the replica persists as a
				// shared copy.
				tAck := s.mesh.Unicast(owner, home, 1, tReq)
				entry.state = coherence.SharedState
				entry.owner = -1
				entry.sharers.Clear()
				entry.sharers.Add(owner)
				s.meter.DirUpdates++
				return tAck
			}
		}
		panic(fmt.Sprintf("sim: owner %d lost line %#x", owner, la))
	}
	flits := 1
	if ol.Dirty {
		flits = 9
		l2line.Version = ol.Version
		l2line.Dirty = true
		ol.Dirty = false
		s.meter.L2LineWrites++
	}
	ol.State = lineS
	tAck := s.mesh.Unicast(owner, home, flits, tReq)
	entry.state = coherence.SharedState
	entry.owner = -1
	entry.sharers.Clear()
	entry.sharers.Add(owner)
	s.meter.DirUpdates++
	return tAck
}

// invalidateSharers invalidates every private copy except the requester's
// (`except`, -1 for none), collecting utilization counters with the acks
// and classifying each invalidated core. Returns the time the last ack
// reaches home.
func (s *adaptiveProtocol) invalidateSharers(home int, la mem.Addr, entry *dirEntry,
	l2line *cache.Line, except int, t mem.Cycle) mem.Cycle {

	switch entry.state {
	case coherence.Uncached:
		return t
	case coherence.ExclusiveState, coherence.ModifiedState:
		owner := int(entry.owner)
		if owner == except {
			return t
		}
		tReq := s.mesh.Unicast(home, owner, 1, t)
		tEnd := s.invalAck(home, la, owner, entry, l2line, tReq)
		entry.state = coherence.Uncached
		entry.owner = -1
		return tEnd
	}

	// Shared state: multicast to identified sharers or broadcast on
	// ACKwise overflow.
	latest := t
	if entry.sharers.Overflowed() {
		s.bcastInvals++
		arrivals := s.mesh.BroadcastInto(s.bcastInval, home, 1, t)
		s.bcastInval = arrivals
		for id := range s.tiles {
			if id == except || !s.tileHasCopy(id, la) {
				continue
			}
			tEnd := s.invalAck(home, la, id, entry, l2line, arrivals[id])
			if tEnd > latest {
				latest = tEnd
			}
		}
		keep := except >= 0 && s.tileHasCopy(except, la)
		entry.sharers.Clear()
		if keep {
			entry.sharers.Add(except)
		}
	} else {
		ids := s.borrowIDs(entry.sharers.Identified())
		for _, id16 := range ids {
			id := int(id16)
			if id == except {
				continue
			}
			tReq := s.mesh.Unicast(home, id, 1, t)
			tEnd := s.invalAck(home, la, id, entry, l2line, tReq)
			if tEnd > latest {
				latest = tEnd
			}
			entry.sharers.Remove(id)
		}
		s.returnIDs(ids)
	}
	if entry.sharers.Count() == 0 {
		entry.state = coherence.Uncached
	}
	return latest
}

// invalAck invalidates one sharer's L1 copy at its arrival time and returns
// when the acknowledgement (carrying the private utilization counter,
// Section 3.6) reaches home.
func (s *adaptiveProtocol) invalAck(home int, la mem.Addr, id int, entry *dirEntry,
	l2line *cache.Line, tArr mem.Cycle) mem.Cycle {

	if s.faults.DropInvalidations {
		// Seeded SWMR defect (Faults): the request is lost, the sharer's
		// copy survives, yet the caller still deregisters it at home.
		return tArr
	}
	tArr += mem.Cycle(s.cfg.L1DLatency)
	line, ok := s.invalidateTileCopy(id, la)
	if !ok {
		panic(fmt.Sprintf("sim: invalidation of absent copy at core %d line %#x", id, la))
	}
	s.cores[id].history.set(la, hInvalidated)
	flits := 1
	if line.Dirty {
		flits = 9
		l2line.Version = line.Version
		l2line.Dirty = true
		s.meter.L2LineWrites++
	}
	tAck := s.mesh.Unicast(id, home, flits, tArr)
	s.classifyRemoval(entry, id, line.Util, false)
	if s.cfg.TrackUtilization {
		s.invalHist.Record(line.Util)
	}
	s.invalidations++
	return tAck
}

// dropRequesterCopy invalidates the requester's own stale S copy when its
// write is serviced as a remote word access, updating directory state and
// classification exactly as a remote invalidation would.
func (s *adaptiveProtocol) dropRequesterCopy(c *coreState, la mem.Addr, entry *dirEntry) {
	line, ok := s.tiles[c.id].l1d.Invalidate(la)
	if !ok {
		panic(fmt.Sprintf("sim: upgrade without an L1 copy at core %d line %#x", c.id, la))
	}
	entry.sharers.Remove(c.id)
	if entry.sharers.Count() == 0 && entry.state == coherence.SharedState {
		entry.state = coherence.Uncached
	}
	s.classifyRemoval(entry, c.id, line.Util, false)
	if s.cfg.TrackUtilization {
		s.invalHist.Record(line.Util)
	}
	s.invalidations++
}

// classifyRemoval applies the PCT classification when a core's private copy
// leaves its L1 (Section 3.2) and counts demotions.
func (s *adaptiveProtocol) classifyRemoval(entry *dirEntry, id int, util uint32, eviction bool) {
	st := core.Lookup(entry.cls, id)
	was := st.Mode
	core.Classify(s.cfg.Protocol, st, util, eviction)
	if was == core.ModePrivate && st.Mode == core.ModeRemote {
		s.demotions++
	}
	s.meter.DirUpdates++
}

// L1Evict sends the eviction notification (with the utilization counter and
// dirty data) for a displaced L1 line. The requester does not wait on it;
// network occupancy and directory state are updated at the eviction time.
func (s *adaptiveProtocol) L1Evict(c *coreState, victim cache.Line, t mem.Cycle) {
	la := victim.Addr
	home := int(victim.Home)
	if s.cfg.VictimReplication && s.tryReplicate(c, victim, t) {
		// The victim lives on as a local replica; the tile remains a
		// sharer at home and no notification is sent.
		return
	}
	flits := 1
	if victim.Dirty {
		flits = 9
	}
	s.mesh.Unicast(c.id, home, flits, t)

	ht := &s.tiles[home]
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
		s.meter.L2LineWrites++
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
	s.classifyRemoval(entry, c.id, victim.Util, true)
	if s.cfg.TrackUtilization {
		s.evictHist.Record(victim.Util)
	}
	c.history.set(la, hEvicted)
}

// L2Evict handles an L2 slice eviction: the inclusive hierarchy
// back-invalidates all private copies (their round trips overlap the DRAM
// fill and are not charged to the requester), then writes dirty data back
// to DRAM. Instruction lines have no directory entry and are dropped.
func (s *adaptiveProtocol) L2Evict(home int, victim cache.Line, t mem.Cycle) {
	la := victim.Addr
	if victim.State == lineReplica {
		// A home-line fill displaced a victim-replication replica: the
		// home directory of the replicated line must drop this tile's
		// sharership.
		s.replicaEvictions++
		s.notifyReplicaEviction(home, victim, t)
		return
	}
	ht := &s.tiles[home]
	entry := ht.dir.probe(la)
	if entry == nil {
		return // read-only instruction replica
	}
	version := victim.Version
	dirty := victim.Dirty

	backInval := func(id int) {
		tReq := s.mesh.Unicast(home, id, 1, t)
		tReq += mem.Cycle(s.cfg.L1DLatency)
		line, ok := s.invalidateTileCopy(id, la)
		if !ok {
			panic(fmt.Sprintf("sim: back-invalidation of absent copy at core %d line %#x", id, la))
		}
		s.cores[id].history.set(la, hEvicted)
		flits := 1
		if line.Dirty {
			flits = 9
			dirty = true
			if line.Version > version {
				version = line.Version
			}
		}
		s.mesh.Unicast(id, home, flits, tReq)
		s.classifyRemoval(entry, id, line.Util, true)
		if s.cfg.TrackUtilization {
			s.evictHist.Record(line.Util)
		}
	}

	switch entry.state {
	case coherence.ExclusiveState, coherence.ModifiedState:
		backInval(int(entry.owner))
	case coherence.SharedState:
		if entry.sharers.Overflowed() {
			s.bcastEvict = s.mesh.BroadcastInto(s.bcastEvict, home, 1, t)
			s.bcastInvals++
			for id := range s.tiles {
				if s.tileHasCopy(id, la) {
					backInval(id)
				}
			}
		} else {
			ids := s.borrowIDs(entry.sharers.Identified())
			for _, id := range ids {
				backInval(int(id))
			}
			s.returnIDs(ids)
		}
	}
	if dirty {
		ctrl := s.dram.ControllerOf(la)
		mc := s.dram.TileOf(ctrl)
		s.mesh.Unicast(home, mc, 9, t)
		s.dram.Write(ctrl, mem.LineBytes, t)
		s.dramVerSet(la, version)
		s.meter.L2LineReads++
	}
	s.removeDirEntry(home, la, entry)
}

// PageMove implements the R-NUCA private→shared reclassification: the
// page's lines migrate out of the old home slice (dirty ones via DRAM).
// Protocol state changes are immediate; the triggering access is charged
// PageMoveLatency by the caller.
func (s *adaptiveProtocol) PageMove(recl *nuca.Reclassification, t mem.Cycle) {
	oldHome := recl.OldHome
	ht := &s.tiles[oldHome]
	for i := 0; i < mem.PageBytes/mem.LineBytes; i++ {
		la := recl.Page + mem.Addr(i*mem.LineBytes)
		l2line := ht.l2.Probe(la)
		if l2line == nil {
			continue
		}
		entry := ht.dir.probe(la)
		if entry != nil {
			s.invalidateSharers(oldHome, la, entry, l2line, -1, t)
			s.removeDirEntry(oldHome, la, entry)
		}
		old, _ := ht.l2.Invalidate(la)
		ctrl := s.dram.ControllerOf(la)
		if old.Dirty {
			s.dram.Write(ctrl, mem.LineBytes, t)
			s.dramVerSet(la, old.Version)
			s.mesh.Unicast(oldHome, s.dram.TileOf(ctrl), 9, t)
		}
		s.meter.L2LineReads++
	}
}
