package sim

// The execution engine: the run loop that drains the per-core run queue.
//
// Two formulations coexist. runGeneric is the reference: one operation per
// heap touch, protocol dispatch through the Protocol interface — the loop
// as originally written, kept verbatim as the semantic baseline the
// differential tests replay against (TestEngineBatchedVsGeneric).
//
// runBatched is the fast engine every built-in protocol runs on. It
// applies two transforms that leave the execution order provably
// unchanged:
//
//   - Horizon batching. The outer loop snapshots the run queue's second
//     smallest key (coreQueue.horizon), decoded once per batch from its
//     packed form to (time, id), so the per-access compare never depends
//     on the packing. While the root core's re-keyed (time, id) stays
//     strictly below that horizon it is still the global minimum —
//     nothing else touches the queue during data accesses, so the other
//     keys are frozen — and the pop/push formulation would pick it
//     again. The inner loop therefore retires an entire run of the root
//     core's accesses with zero heap operations, re-keying once when the
//     core crosses the horizon. Synchronization operations (barrier, lock,
//     unlock) and stream exhaustion reshape the heap, so they end the
//     batch and fall back to the shared slow-path helpers.
//
//   - An inlined hit path. The L1-hit fast path — tag probe via the core's
//     MRU line hint, then the protocol-neutral hit epilogue — is inlined
//     into the loop body and never leaves it; only a miss (or an upgrade)
//     dispatches, through protocolCore.dirMiss, into the shared directory
//     transaction, which calls back into the protocol's policy.
//
// Keep runBatched in step with runGeneric + dataAccess (protocol.go).
// Externally registered protocols that do not implement protocolCore, and
// the reference core, run the generic loop.

import (
	"fmt"

	"lacc/internal/mem"
)

// runEngine drains the run queue: the batched loop for every protocol that
// implements protocolCore, the generic loop otherwise.
func (s *Simulator) runEngine() error {
	if !s.reference && !s.forceGeneric {
		if p, ok := s.proto.(protocolCore); ok {
			return s.runBatched(p)
		}
	}
	return s.runGeneric()
}

// runGeneric is the reference engine: the globally earliest core executes
// one operation as an atomic transaction, then is re-keyed at its advanced
// clock. The core stays at the heap root while it executes (nothing else
// touches the queue mid-transaction), so the requeue is a replaceTop — a
// single sift-down that degenerates to two comparisons in the common case
// of a core staying earliest across consecutive L1 hits — instead of a
// full pop+push cycle. Keys are unique ((time, id) with ids distinct), so
// the execution order is identical to the pop+push formulation.
func (s *Simulator) runGeneric() error {
	for len(s.runQ.q) > 0 {
		id := s.runQ.top()
		c := &s.cores[id]
		a, ok := c.next()
		if !ok {
			if err := s.retireTop(c); err != nil {
				return err
			}
			continue
		}
		if a.Gap > 0 {
			c.now += mem.Cycle(a.Gap)
			c.bd.Compute += float64(a.Gap)
		}
		switch a.Kind {
		case mem.Read, mem.Write:
			s.instrFetch(c, a.Gap)
			s.proto.DataAccess(c, a.Kind, a.Addr)
			if err := s.runQ.replaceTop(c.now, id); err != nil {
				return err
			}
		default:
			if err := s.syncOp(c, a); err != nil {
				return err
			}
		}
	}
	return nil
}

// retireTop marks the heap-root core's stream exhausted and removes it,
// releasing a barrier its exit may complete.
func (s *Simulator) retireTop(c *coreState) error {
	c.done = true
	s.runQ.popTop()
	return s.maybeReleaseBarrier()
}

// syncSelfInvalidator is implemented by protocols that react to a core
// reaching a synchronization point (barrier arrival or lock acquisition)
// by shedding cached state — Neat's self-invalidation. The hook runs
// before the synchronization primitive, so the reaction is ordered at the
// core's arrival time.
type syncSelfInvalidator interface {
	syncSelfInvalidate(c *coreState)
}

// syncOp executes a non-data operation for the heap-root core. All of them
// may reshape the run queue (parking, granting or releasing cores), so the
// batched loop ends its batch after calling it.
func (s *Simulator) syncOp(c *coreState, a mem.Access) error {
	if a.Kind == mem.Barrier || a.Kind == mem.Lock {
		if si, ok := s.proto.(syncSelfInvalidator); ok {
			si.syncSelfInvalidate(c)
		}
	}
	switch a.Kind {
	case mem.Barrier:
		s.runQ.popTop()
		return s.barrierArrive(c, a.Addr)
	case mem.Lock:
		s.runQ.popTop() // lockAcquire re-queues the core when granted
		return s.lockAcquire(c, uint64(a.Addr))
	case mem.Unlock:
		if err := s.lockRelease(c, uint64(a.Addr)); err != nil {
			return err
		}
		return s.runQ.replaceTop(c.now, int32(c.id))
	default:
		return fmt.Errorf("sim: core %d emitted unknown op %v", c.id, a.Kind)
	}
}

// runBatched is the horizon-batched engine. See the comment at the top of
// this file for the invariants.
func (s *Simulator) runBatched(p protocolCore) error {
	for len(s.runQ.q) > 0 {
		id := s.runQ.top()
		c := &s.cores[id]
		hzNow, hzID := s.runQ.horizon()
		l1 := s.tiles[id].l1d
		for {
			var a mem.Access
			if c.bufIdx < len(c.buf) {
				a = c.buf[c.bufIdx]
				c.bufIdx++
			} else {
				var ok bool
				if a, ok = c.refill(); !ok {
					if err := s.retireTop(c); err != nil {
						return err
					}
					break
				}
			}
			if a.Gap > 0 {
				c.now += mem.Cycle(a.Gap)
				c.bd.Compute += float64(a.Gap)
			}
			if !a.Kind.IsData() {
				if err := s.syncOp(c, a); err != nil {
					return err
				}
				break
			}
			s.instrFetch(c, a.Gap)
			la := mem.LineOf(a.Addr)
			line := c.lastL1D
			if !l1.Holds(line, la) {
				line = l1.Probe(la)
			}
			if line != nil && (a.Kind == mem.Read || line.State != lineS) {
				// Inlined l1DataHit (protocol.go): the epilogue is above the
				// compiler's inlining budget, and this is the single hottest
				// block of a simulation. Keep the two in lock-step.
				c.lastL1D = line
				c.l1d.Hits++
				line.Util++
				l1.Touch(line, c.now)
				if a.Kind == mem.Write {
					s.meter.L1DWrites++
					line.State = lineM
					line.Dirty = true
					line.Version = s.goldenWrite(la)
				} else {
					s.meter.L1DReads++
					if s.cfg.CheckValues {
						s.checkVersion("L1 read hit", la, line.Version)
					}
				}
				c.now += mem.Cycle(s.cfg.L1DLatency)
			} else {
				p.dirMiss(c, a.Kind, a.Addr, line != nil)
			}
			if c.now < hzNow || (c.now == hzNow && id < hzID) {
				continue
			}
			if err := s.runQ.replaceTop(c.now, id); err != nil {
				return err
			}
			break
		}
	}
	return nil
}
