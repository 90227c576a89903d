package sim

// Machine is the model checker's stepping adapter: it exposes the
// simulator one data access at a time, under the checker's control,
// instead of draining trace streams through the run-queue engine. A step
// executes exactly the engine loop's per-operation body (Simulator.step:
// gap advance, instruction fetch, data access), so a sequence of Step
// calls is behaviorally identical to an engine run that selects the same
// cores in the same order — which is what lets a checker counterexample be
// re-encoded as a trace whose replay through Run reproduces the violating
// interleaving (see internal/check).
//
// CopyFrom forks a machine: it makes one machine an exact copy of another
// built with the same Config, copying only the occupied cache sets and
// table blocks (their occupancy bitmaps say which), so a fork costs what
// the machine holds rather than its capacity. The checker brings one
// machine to a frontier state and forks it once per action instead of
// replaying every path from reset.
//
// Snapshot exposes the coherence-relevant machine state (golden/DRAM
// versions, the home L2 line, the directory entry with its classifier,
// and every private copy) through exported value types, so the checker
// can canonicalize and hash states without reaching into simulator
// internals. It appends into a caller-owned buffer and reuses the
// buffer's storage, so a steady-state snapshot allocates nothing.

import (
	"cmp"
	"slices"

	"lacc/internal/coherence"
	"lacc/internal/core"
	"lacc/internal/mem"
	"lacc/internal/nuca"
)

// Faults selects deliberately seeded protocol defects. They exist for the
// model checker's self-tests: a seeded fault must produce an invariant
// violation, and the resulting counterexample trace must fail when
// replayed through a simulator carrying the same fault. Faults live on
// the Simulator — not in Config — so experiment fingerprints and result
// caches never observe them; Reset preserves the setting.
type Faults struct {
	// DropInvalidations loses every invalidation request on the way to
	// the sharer: the target's L1 copy survives while the home still
	// deregisters it — the canonical SWMR bug. Affects the adaptive and
	// full-map (MESI/Dragon) invalidation paths.
	DropInvalidations bool

	// DropUpdates loses Dragon's write-update word pushes: the home L2
	// commits the write but the other sharers' copies keep their stale
	// version — a pure data-value bug with intact directory structure.
	DropUpdates bool

	// DropWordWrites loses DLS remote word writes at the home slice: the
	// golden store advances but the home L2 keeps the stale version — the
	// directoryless analogue of a lost store, caught by the data-value
	// invariant on the home line.
	DropWordWrites bool
}

// NewWithFaults builds a simulator with seeded protocol defects. It
// exists for checker self-tests and counterexample replay; experiments
// never construct faulty simulators.
func NewWithFaults(cfg Config, f Faults) (*Simulator, error) {
	s, err := newSimulator(cfg, false)
	if err != nil {
		return nil, err
	}
	s.faults = f
	return s, nil
}

// Machine wraps a Simulator for single-stepped, checker-driven execution.
// A new Machine is in the initial state; CopyFrom moves it to any other
// machine's state, so the checker keeps one pristine machine and forks the
// rest from it instead of resetting.
type Machine struct {
	s *Simulator
}

// NewMachineWithFaults builds a stepping machine with seeded protocol
// defects (see Faults).
func NewMachineWithFaults(cfg Config, f Faults) (*Machine, error) {
	s, err := NewWithFaults(cfg, f)
	if err != nil {
		return nil, err
	}
	s.initCores(nil)
	return &Machine{s: s}, nil
}

// CopyFrom makes m bit-identical to src, whatever state m was in before,
// so that every later Step, Snapshot, Clock and Audit on m behaves as it
// would on src. Both machines must have been built with the same Config;
// src is not modified, and the two share no mutable storage afterwards.
func (m *Machine) CopyFrom(src *Machine) { m.s.copyFrom(src.s) }

// copyFrom is Machine.CopyFrom. It copies the caches (tags, lines, LRU
// clock and counters), the directory tables (sharer sets and classifiers
// rebound to s's arenas), the per-core contexts with their history
// tables, the version stores, the R-NUCA page table, mesh and DRAM timing,
// and the counters. The directory machine is not copied: its flags follow
// from the Config, and the replica drop it carries lives only within one
// transaction. A Machine never runs streams, synchronization or the run
// queue, so the cores' stream fields are nil on both sides, and locks,
// barrier state and the run queue are empty and left alone.
func (s *Simulator) copyFrom(src *Simulator) {
	if s.reference || src.reference {
		panic("sim: copy of a reference-layout simulator")
	}
	if s.cfg != src.cfg || len(s.cores) != len(src.cores) {
		panic("sim: copy between simulators of different configurations")
	}
	s.faults = src.faults
	s.mesh.CopyFrom(src.mesh)
	s.dram.CopyFrom(src.dram)
	s.nuca.CopyFrom(src.nuca)
	s.golden.flat.CopyFrom(src.golden.flat)
	s.dramVer.flat.CopyFrom(src.dramVer.flat)
	for i := range s.tiles {
		t, st := &s.tiles[i], &src.tiles[i]
		t.l1i.CopyFrom(st.l1i)
		t.l1d.CopyFrom(st.l1d)
		t.l2.CopyFrom(st.l2)
		t.dir.flat.copyFrom(st.dir.flat)
	}
	for i := range s.cores {
		c := &s.cores[i]
		h := c.history
		h.flat.CopyFrom(src.cores[i].history.flat)
		*c = src.cores[i]
		c.history = h
	}
	s.counters = src.counters
}

// Cores returns the configured core count.
func (m *Machine) Cores() int { return m.s.cfg.Cores }

// Protocol returns the name of the protocol under test.
func (m *Machine) Protocol() string { return string(m.s.cfg.protocolKind()) }

// Clock returns the core's local clock — the completion time of its last
// step, which is exactly the run-queue key the engine would re-queue it
// at. The counterexample encoder reads it to compute trace gaps.
func (m *Machine) Clock(coreID int) mem.Cycle { return m.s.cores[coreID].now }

// Step executes one data access on the given core as an atomic protocol
// transaction, through the engine's own per-operation body: the gap
// advances the core's clock before the access, the instruction fetch walk
// runs, then the data path. Kind must be mem.Read or mem.Write —
// synchronization operations reshape the run queue and are not steppable.
func (m *Machine) Step(coreID int, kind mem.AccessKind, addr mem.Addr, gap uint32) {
	m.s.step(&m.s.cores[coreID], mem.Access{Addr: addr, Gap: gap, Kind: kind})
}

// Audit runs the structural and data-value invariant checks on the
// current state (see Simulator.Audit).
func (m *Machine) Audit() error { return m.s.Audit() }

// CopyState is the coherence state of one private copy, exported for the
// checker. Values mirror the internal L1 line states.
type CopyState uint8

const (
	CopyShared CopyState = iota + 1
	CopyExclusive
	CopyModified
	// CopyReplica is a victim-replication replica in a tile's local L2
	// slice: a read-only copy whose tile remains a registered sharer.
	CopyReplica
)

// String implements fmt.Stringer for checker diagnostics.
func (cs CopyState) String() string {
	switch cs {
	case CopyShared:
		return "S"
	case CopyExclusive:
		return "E"
	case CopyModified:
		return "M"
	case CopyReplica:
		return "R"
	}
	return "?"
}

// CopySnapshot is one tile's private copy of a line.
type CopySnapshot struct {
	Core    int
	State   CopyState
	Dirty   bool
	Version uint64
	Util    uint32
}

// SharerClass is one tracked core's locality classification at a
// directory entry (adaptive and hybrid only): the core and its mode,
// remote utilization, RAT level and activity bit. The slice order in
// DirSnapshot.Classifier is the classifier's internal slot order, which
// is behaviorally significant for the Limited-k replacement policy.
type SharerClass = core.Tracked

// DirSnapshot is a line's directory entry at its home tile.
type DirSnapshot struct {
	Home       int
	State      coherence.State
	Owner      int
	Sharers    []int // identified sharers, ascending
	Unknown    int   // unidentified sharers (ACKwise overflow)
	Overflowed bool
	Classifier []SharerClass // nil for classifier-free protocols
}

// L2Snapshot is a line's home L2 copy.
type L2Snapshot struct {
	Home    int
	Version uint64
	Dirty   bool
}

// LineSnapshot is the complete coherence-relevant state of one line:
// golden and DRAM versions, R-NUCA page classification, home L2 line,
// directory entry and every private copy (L1 copies and VR replicas).
type LineSnapshot struct {
	Addr   mem.Addr
	Golden uint64
	DRAM   uint64

	// R-NUCA page classification of the line's page: PageKnown is false
	// until first touch; PageOwner is the owning tile for private pages
	// and -1 otherwise.
	PageKnown  bool
	PageShared bool
	PageOwner  int

	L2     *L2Snapshot
	Dir    *DirSnapshot
	Copies []CopySnapshot // sorted by (core, state)

	// l2 and dir back L2 and Dir, so a snapshot taken into a reused
	// buffer allocates nothing.
	l2  L2Snapshot
	dir DirSnapshot
}

// Snapshot appends the coherence state of the given lines to dst and
// returns the extended slice. Storage in dst's spare capacity (the
// elements themselves and their Copies, Sharers and Classifier slices) is
// reused, so a caller that snapshots into buf[:0] each time allocates only
// while the buffer grows; the snapshot is valid until the next Snapshot
// into the same storage. Snapshot is a pure read: every accessor it uses
// (version stores, cache probes, directory probes, R-NUCA peeks) is
// side-effect free, so snapshotting never perturbs the machine.
func (m *Machine) Snapshot(dst []LineSnapshot, lines []mem.Addr) []LineSnapshot {
	for _, a := range lines {
		n := len(dst)
		if n < cap(dst) {
			dst = dst[:n+1]
		} else {
			dst = append(dst, LineSnapshot{})
		}
		m.snapshotLine(&dst[n], mem.LineOf(a))
	}
	return dst
}

// snapshotLine fills ls with line la's state, reusing ls's storage.
func (m *Machine) snapshotLine(ls *LineSnapshot, la mem.Addr) {
	s := m.s
	*ls = LineSnapshot{
		Addr: la, PageOwner: -1,
		Copies: ls.Copies[:0],
		dir: DirSnapshot{
			Sharers:    ls.dir.Sharers[:0],
			Classifier: ls.dir.Classifier[:0],
		},
	}
	if s.cfg.CheckValues {
		ls.Golden = s.golden.get(la)
		ls.DRAM = s.dramVer.get(la)
	}
	if cls, known := s.nuca.ClassOf(la); known {
		ls.PageKnown = true
		ls.PageShared = cls == nuca.PageShared
		if !ls.PageShared {
			ls.PageOwner = s.nuca.PeekDataHome(la, -1)
		}
	}
	for home := range s.tiles {
		ht := &s.tiles[home]
		if l2 := ht.l2.Probe(la); l2 != nil {
			if l2.State == lineReplica {
				ls.Copies = append(ls.Copies, CopySnapshot{
					Core: home, State: CopyReplica,
					Dirty: l2.Dirty, Version: l2.Version, Util: l2.Util,
				})
			} else {
				ls.l2 = L2Snapshot{Home: home, Version: l2.Version, Dirty: l2.Dirty}
				ls.L2 = &ls.l2
			}
		}
		if e := ht.dir.probe(la); e != nil {
			d := &ls.dir
			d.Home = home
			d.State = e.state
			d.Owner = int(e.owner)
			d.Overflowed = e.sharers.Overflowed()
			ids := e.sharers.Identified()
			for _, id := range ids {
				d.Sharers = append(d.Sharers, int(id))
			}
			slices.Sort(d.Sharers)
			d.Unknown = e.sharers.Count() - len(ids)
			d.Classifier = core.AppendTracked(d.Classifier, &e.cls)
			ls.Dir = d
		}
	}
	for id := range s.tiles {
		if l := s.tiles[id].l1d.Probe(la); l != nil {
			ls.Copies = append(ls.Copies, CopySnapshot{
				Core: id, State: CopyState(l.State),
				Dirty: l.Dirty, Version: l.Version, Util: l.Util,
			})
		}
	}
	// (core, state) is unique per line, so any correct sort yields the
	// same order.
	slices.SortFunc(ls.Copies, func(x, y CopySnapshot) int {
		return cmp.Or(cmp.Compare(x.Core, y.Core), cmp.Compare(x.State, y.State))
	})
}
