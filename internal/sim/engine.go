package sim

// The execution engine: the run loop that drains the per-core run queue.
//
// The globally earliest core executes one operation as an atomic
// transaction, then is re-keyed at its advanced clock. The core stays at
// the heap root while it executes (nothing else touches the queue during a
// data access), so the requeue is a replaceTop — a single sift-down that
// degenerates to two comparisons in the common case of a core staying
// earliest across consecutive L1 hits — instead of a full pop+push cycle.
// Keys are unique ((time, id) with ids distinct), so the execution order is
// identical to the pop+push formulation. A data access runs through step,
// the same body the model checker's Machine.Step executes, so a checker
// interleaving replays through Run exactly.

import (
	"fmt"

	"lacc/internal/mem"
)

// runEngine drains the run queue.
func (s *Simulator) runEngine() error {
	for len(s.runQ.q) > 0 {
		id := s.runQ.top()
		c := &s.cores[id]
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
				continue
			}
		}
		s.step(c, a)
		var err error
		if a.Kind.IsData() {
			err = s.runQ.replaceTop(c.now, id)
		} else {
			err = s.syncOp(c, a)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// step executes one trace operation's work on core c: the compute gap
// advances the core's clock, then a data access runs its instruction fetch
// walk and the data path. A synchronization operation gets only the gap;
// the caller runs syncOp, which may reshape the run queue.
func (s *Simulator) step(c *coreState, a mem.Access) {
	if a.Gap > 0 {
		c.now += mem.Cycle(a.Gap)
		c.bd.Compute += float64(a.Gap)
	}
	if a.Kind.IsData() {
		s.instrFetch(c, a.Gap)
		s.dataAccess(c, a.Kind, a.Addr)
	}
}

// retireTop marks the heap-root core's stream exhausted and removes it,
// releasing a barrier its exit may complete.
func (s *Simulator) retireTop(c *coreState) error {
	c.done = true
	s.runQ.popTop()
	return s.maybeReleaseBarrier()
}

// syncOp executes a non-data operation for the heap-root core, parking,
// granting or releasing cores in the run queue. Under a self-invalidating
// protocol (Neat) a core reaching a barrier or acquiring a lock first
// sheds its Shared lines, so the reaction is ordered at its arrival time.
func (s *Simulator) syncOp(c *coreState, a mem.Access) error {
	if s.proto.selfInvalidate && (a.Kind == mem.Barrier || a.Kind == mem.Lock) {
		s.proto.syncSelfInvalidate(c)
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
