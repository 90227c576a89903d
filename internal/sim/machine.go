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
// Snapshot exposes the coherence-relevant machine state (golden/DRAM
// versions, the home L2 line, the directory entry with its classifier,
// and every private copy) through exported value types, so the checker
// can canonicalize and hash states without reaching into simulator
// internals.

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
type Machine struct {
	s *Simulator
}

// NewMachine builds a stepping machine for cfg.
func NewMachine(cfg Config) (*Machine, error) {
	return NewMachineWithFaults(cfg, Faults{})
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

// Reset restores the machine to its initial state (same configuration and
// faults), bit-identical to a fresh NewMachineWithFaults.
func (m *Machine) Reset() error {
	if err := m.s.Reset(m.s.cfg); err != nil {
		return err
	}
	m.s.initCores(nil)
	return nil
}

// Cores returns the configured core count.
func (m *Machine) Cores() int { return m.s.cfg.Cores }

// Protocol returns the name of the protocol under test.
func (m *Machine) Protocol() string { return m.s.proto.Name() }

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
// directory entry (adaptive protocol only). The slice order in
// DirSnapshot.Classifier is the classifier's internal slot order, which
// is behaviorally significant for the Limited-k replacement policy.
type SharerClass struct {
	Core       int
	Mode       core.Mode
	RemoteUtil uint16
	RATLevel   uint8
	Active     bool
}

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
}

// Snapshot captures the coherence state of the given lines. It is a pure
// read: every accessor it uses (version stores, cache probes, directory
// probes, R-NUCA peeks) is side-effect free, so snapshotting never
// perturbs the machine.
func (m *Machine) Snapshot(lines []mem.Addr) []LineSnapshot {
	s := m.s
	out := make([]LineSnapshot, len(lines))
	for i, a := range lines {
		la := mem.LineOf(a)
		ls := LineSnapshot{Addr: la, PageOwner: -1}
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
					ls.L2 = &L2Snapshot{Home: home, Version: l2.Version, Dirty: l2.Dirty}
				}
			}
			if e := ht.dir.probe(la); e != nil {
				d := &DirSnapshot{
					Home:       home,
					State:      e.state,
					Owner:      int(e.owner),
					Overflowed: e.sharers.Overflowed(),
				}
				ids := e.sharers.Identified()
				d.Sharers = make([]int, len(ids))
				for j, id := range ids {
					d.Sharers[j] = int(id)
				}
				slices.Sort(d.Sharers)
				d.Unknown = e.sharers.Count() - len(ids)
				if e.cls != nil {
					e.cls.ForEachTracked(func(id int, st *core.CoreState) {
						d.Classifier = append(d.Classifier, SharerClass{
							Core: id, Mode: st.Mode,
							RemoteUtil: st.RemoteUtil, RATLevel: st.RATLevel,
							Active: st.Active,
						})
					})
				}
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
		// (core, state) is unique per line, so any correct sort yields
		// the same order.
		slices.SortFunc(ls.Copies, func(x, y CopySnapshot) int {
			return cmp.Or(cmp.Compare(x.Core, y.Core), cmp.Compare(x.State, y.State))
		})
		out[i] = ls
	}
	return out
}
