package sim

import (
	"fmt"

	"lacc/internal/cache"
	"lacc/internal/mem"
	"lacc/internal/stats"
)

// Victim Replication (Zhang & Asanovic, ISCA 2005) is the hybrid LLC
// baseline the paper discusses in Section 2.1: clean Shared-state L1
// victims are replicated into the local L2 slice so a future miss can be
// serviced without crossing the mesh. The replica's tile remains a
// registered sharer at the line's home directory, so writes invalidate
// replicas exactly like L1 copies and the golden-store checker verifies
// freshness. The paper's critique — every victim is replicated,
// irrespective of whether it will be reused — is observable here as local
// L2 slice pressure and replica evictions.
//
// Victim replication rides on the shared directory walk: the release path
// (baseline.go) calls tryReplicate and notifyReplicaEviction behind
// Config.VictimReplication, which Config.Validate accepts only under the
// adaptive protocol, and the miss transaction's prelude (dirMiss) runs
// replicaRead and dropOwnReplica before the request is sent.

// isReplica approves only replica lines for displacement: replicas must
// never evict home lines.
func isReplica(l *cache.Line) bool { return l.State == lineReplica }

// tryReplicate attempts to place a clean Shared L1 victim into the local
// L2 slice. On success the home directory is left untouched (the tile is
// still a sharer) and no message is sent. It reports whether the victim
// was absorbed.
func (s *dirProtocol) tryReplicate(c *coreState, victim cache.Line, t mem.Cycle) bool {
	if victim.Dirty || (victim.State != lineS && victim.State != lineE) {
		return false // only clean data is replicated
	}
	if int(victim.Home) == c.id {
		return false // the local slice is the home: the line is already here
	}
	l2 := s.tiles[c.id].l2
	line, old, evicted := l2.TryInsert(victim.Addr, isReplica)
	if line == nil {
		return false // set full of home lines: drop the victim normally
	}
	if evicted {
		s.replicaEvictions++
		s.notifyReplicaEviction(c.id, old, t)
	}
	line.State = lineReplica
	line.Util = victim.Util
	line.Version = victim.Version
	line.Home = victim.Home
	l2.Touch(line, t)
	s.meter.L2LineWrites++
	s.replicaInserts++
	return true
}

// replicaRead services an L1 read miss from a local replica, if present:
// the line moves back into the L1 (the replica way is freed) at local L2
// cost, with no network traffic. It reports whether the miss was absorbed.
func (s *dirProtocol) replicaRead(c *coreState, la mem.Addr) bool {
	l2 := s.tiles[c.id].l2
	rl := l2.Probe(la)
	if rl == nil || rl.State != lineReplica {
		return false
	}
	replica, _ := l2.Invalidate(la)
	s.replicaHits++
	s.meter.L1DReads++
	s.meter.L2LineReads++

	t := c.now + mem.Cycle(s.cfg.L1DLatency) + mem.Cycle(s.cfg.L2Latency)
	l1 := s.tiles[c.id].l1d
	line, victim, evicted := l1.Insert(la)
	if evicted {
		s.L1Evict(c, victim, t)
	}
	s.meter.L1DWrites++ // line fill
	line.State = lineS
	line.Home = replica.Home
	line.Version = replica.Version
	line.Util = replica.Util + 1 // the replica continues the private residency
	l1.Touch(line, t)

	if s.cfg.CheckValues {
		s.checkVersion("replica read", la, line.Version)
	}
	c.l1d.Record(stats.MissCapacity) // a miss the replica made cheap
	c.bd.L1ToL2 += float64(t - c.now)
	c.history.set(la, hCached)
	c.now = t
	return true
}

// dropOwnReplica invalidates the requester's local replica on a write miss
// (the write request carries the drop to the home, costing no extra
// message) and returns its frozen utilization counter. A read miss that
// gets here has no replica: replicaRead would have absorbed it.
func (s *dirProtocol) dropOwnReplica(c *coreState, la mem.Addr) (util uint32, had bool) {
	l2 := s.tiles[c.id].l2
	rl := l2.Probe(la)
	if rl == nil || rl.State != lineReplica {
		return 0, false
	}
	replica, _ := l2.Invalidate(la)
	return replica.Util, true
}

// dropSharershipAtHome applies a replica drop at the home directory: the
// tile stops being a sharer (or, for a clean-Exclusive replica, stops
// being the registered owner) and its frozen utilization classifies it.
func (s *dirProtocol) dropSharershipAtHome(entry *dirEntry, tile int, util uint32) {
	releaseHolder(entry, tile)
	s.pol.dropped(entry, tile, util, dropEvict)
	if s.cfg.TrackUtilization {
		s.evictHist.Record(util)
	}
}

// notifyReplicaEviction tells the home directory a replica was displaced:
// the tile stops being a sharer and the frozen utilization classifies the
// core, exactly as an L1 eviction notification would (replicas are always
// clean, so the message is a single flit).
func (s *dirProtocol) notifyReplicaEviction(tile int, victim cache.Line, t mem.Cycle) {
	la := victim.Addr
	home := int(victim.Home)
	s.mesh.Unicast(tile, home, 1, t)

	ht := &s.tiles[home]
	entry := ht.dir.probe(la)
	if entry == nil {
		panic(fmt.Sprintf("sim: replica eviction of line %#x without directory entry", la))
	}
	s.dropSharershipAtHome(entry, tile, victim.Util)
	s.cores[tile].history.set(la, hEvicted)
}

// replicaOf returns a tile's victim-replication replica of a line, if any.
func (s *Simulator) replicaOf(tile int, la mem.Addr) *cache.Line {
	if !s.cfg.VictimReplication {
		return nil
	}
	if rl := s.tiles[tile].l2.Probe(la); rl != nil && rl.State == lineReplica {
		return rl
	}
	return nil
}

// invalidateTileCopy removes a tile's copy of a line wherever it lives —
// the L1 or, under victim replication, the local L2 replica — returning
// the removed line. Callers treat false as a protocol invariant violation:
// the directory's sharer bookkeeping is exact.
func (s *Simulator) invalidateTileCopy(tile int, la mem.Addr) (cache.Line, bool) {
	if line, ok := s.tiles[tile].l1d.Invalidate(la); ok {
		return line, true
	}
	if s.replicaOf(tile, la) != nil {
		line, _ := s.tiles[tile].l2.Invalidate(la)
		return line, true
	}
	return cache.Line{}, false
}
