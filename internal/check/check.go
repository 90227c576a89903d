// Package check is a bounded explicit-state model checker for the
// simulator's coherence protocols. The golden table and Simulator.Audit
// verify executions; check verifies state spaces: it drives a Protocol
// implementation through every interleaving of a small access alphabet
// (each core reading and writing each of a few lines) by breadth-first
// search, and at every reachable state asserts
//
//   - SWMR: at most one writable (E/M) private copy exists, and never
//     alongside any other copy;
//   - the data-value invariant: every readable copy carries the latest
//     committed version — L1 copies and VR replicas always, the home L2
//     line whenever the directory is Uncached or Shared (Exclusive is
//     exempt: a silent E→M upgrade leaves the home stale by design), and
//     DRAM whenever the line is entirely off chip;
//   - directory/cache structural agreement, via Simulator.Audit.
//
// Visited states are deduplicated by a canonical encoding (encode.go)
// that captures exactly the state the protocol's future behavior depends
// on, so the reachable graph is finite and the search exhausts it.
//
// The search never undoes a transition. Each frontier state is reached
// once, by forking a pristine machine (sim.Machine.CopyFrom) and replaying
// the state's path, and is then forked again per action: a transition
// costs one copy of the occupied machine state, one step, a snapshot, the
// invariant checks, an audit and the encoding, whatever the length of the
// path that led to it. A transition into an already-visited state
// allocates nothing.
//
// A violation is reported with its interleaving and re-encoded as a
// trace-format program (trace.go) whose replay through sim.Run executes
// exactly that interleaving — every checker counterexample is
// immediately a failing execution-level regression test.
package check

import (
	"fmt"

	"lacc/internal/mem"
	"lacc/internal/sim"
)

// Action is one checker-scheduled access: Core performs Kind at Addr.
type Action struct {
	Core int
	Kind mem.AccessKind
	Addr mem.Addr
}

// String renders the action compactly ("c1 W 0x100040").
func (a Action) String() string {
	k := "R"
	if a.Kind == mem.Write {
		k = "W"
	}
	return fmt.Sprintf("c%d %s %#x", a.Core, k, a.Addr)
}

// Options configure a bounded run.
type Options struct {
	// Config is the machine under test; Bound builds the standard small
	// model. CheckValues must be on (the data-value invariant reads the
	// golden store) and Protocol.UseTimestamp off (timestamp-driven
	// classification depends on clock values, which the canonical
	// encoding deliberately omits).
	Config sim.Config

	// Faults seeds protocol defects; the self-test mode proves the
	// checker finds them. Zero for real verification runs.
	Faults sim.Faults

	// Lines is the data-line alphabet; nil selects two consecutive lines
	// of one page. The count must stay below the L1 associativity:
	// capacity evictions would make LRU order — omitted from the
	// encoding — behaviorally relevant.
	Lines []mem.Addr

	// MaxDepth bounds the interleaving length (default 12); MaxStates
	// bounds the visited set (default 1<<18). Hitting either marks the
	// report truncated.
	MaxDepth  int
	MaxStates int
}

// Report summarizes one bounded run.
type Report struct {
	Protocol    string
	States      int  // distinct canonical states visited
	Transitions int  // (state, action) pairs explored
	Depth       int  // longest interleaving explored
	Truncated   bool // a bound was hit before the graph closed
	Violation   *Violation
}

// Violation is one invariant failure with its reproduction path.
type Violation struct {
	Kind   string // "swmr", "data-value", "audit" or "panic"
	Detail string
	Path   []Action

	// Trace is the counterexample as per-core trace-format streams
	// (append a probe read after Path for data-value violations so the
	// stale value is observed): replaying them through sim.Run executes
	// exactly the violating interleaving.
	Trace [][]mem.Access

	// ReplayFailure is the failure Trace produced when replayed through
	// a simulator carrying the same faults (error text or recovered
	// panic). Empty means the replay unexpectedly ran clean.
	ReplayFailure string
}

// Bound returns the standard small-model configuration for kind: cores
// tiles in a cores×1 mesh with one memory controller, value checking on,
// utilization histograms off and the timestamp classifier variant
// disabled. ackwisePointers > 0 overrides the directory pointer count
// (1 forces the ACKwise overflow/broadcast paths at 2+ sharers); <= 0
// keeps the default, which is full-map at these core counts.
func Bound(kind sim.ProtocolKind, cores, ackwisePointers int) sim.Config {
	cfg := sim.Default()
	cfg.Cores = cores
	cfg.MeshWidth = cores
	cfg.MemControllers = 1
	cfg.ProtocolKind = kind
	if ackwisePointers > 0 {
		cfg.AckwisePointers = ackwisePointers
	}
	cfg.CheckValues = true
	cfg.TrackUtilization = false
	cfg.Protocol.UseTimestamp = false
	cfg.CodeLines = 4
	return cfg
}

func defaultLines() []mem.Addr { return []mem.Addr{0x100000, 0x100040} }

// finding is an invariant failure before it is packaged as a Violation.
// probe, when set, is a follow-up read that observes the stale value, so
// the counterexample trace also fails the simulator's inline checkVersion
// rather than only the end-of-run audit.
type finding struct {
	kind   string
	detail string
	probe  *Action
}

// runner holds the per-run exploration state. The search keeps three
// machines: pristine stays in the initial state, base is brought to each
// frontier state once (forked from pristine, then the state's path
// replayed), and fork is copied from base and stepped for each action but
// the last, which steps base itself.
type runner struct {
	pristine, base, fork *sim.Machine

	lines   []mem.Addr
	actions []Action
	cores   int
	satCap  int // counter saturation bound for the canonical encoding

	// snap and key are the snapshot and encoding buffers, reused by every
	// explored transition.
	snap []sim.LineSnapshot
	key  []byte
}

// Run explores the bounded state graph and returns the report; a found
// violation stops the search.
func Run(opts Options) (*Report, error) {
	cfg := opts.Config
	maxDepth := opts.MaxDepth
	if maxDepth <= 0 {
		maxDepth = 12
	}
	maxStates := opts.MaxStates
	if maxStates <= 0 {
		maxStates = 1 << 18
	}
	r, err := newRunner(opts)
	if err != nil {
		return nil, err
	}
	rep := &Report{Protocol: r.pristine.Protocol()}

	r.snap = r.pristine.Snapshot(r.snap[:0], r.lines)
	if f := r.findViolation(r.snap); f != nil {
		// The initial state cannot violate anything; a failure here is a
		// checker bug, not a protocol bug.
		return nil, fmt.Errorf("check: initial state invalid: %s", f.detail)
	}
	visited := map[string]struct{}{string(r.encode(r.snap)): {}}
	queue := [][]uint8{nil}
	for head := 0; head < len(queue); head++ {
		path := queue[head]
		if len(path) > rep.Depth {
			rep.Depth = len(path)
		}
		if len(path) >= maxDepth {
			rep.Truncated = true
			continue
		}
		if err := r.reach(path); err != nil {
			return nil, err
		}
		for ai := range r.actions {
			if len(visited) >= maxStates {
				rep.Truncated = true
				rep.States = len(visited)
				return rep, nil
			}
			fd, enc := r.explore(r.actions[ai], ai == len(r.actions)-1)
			rep.Transitions++
			if fd != nil {
				full := extend(path, ai)
				v, verr := r.violation(cfg, opts.Faults, full, fd)
				if verr != nil {
					return nil, verr
				}
				rep.Violation = v
				rep.States = len(visited)
				if len(full) > rep.Depth {
					rep.Depth = len(full)
				}
				return rep, nil
			}
			// Indexing with string(enc) does not allocate; only a new
			// state pays for its key and its queued path.
			if _, ok := visited[string(enc)]; !ok {
				visited[string(enc)] = struct{}{}
				queue = append(queue, extend(path, ai))
			}
		}
	}
	rep.States = len(visited)
	return rep, nil
}

// extend returns a new path: path followed by action index ai.
func extend(path []uint8, ai int) []uint8 {
	return append(append(make([]uint8, 0, len(path)+1), path...), uint8(ai))
}

// newRunner validates opts and builds the search's machines and action
// alphabet.
func newRunner(opts Options) (*runner, error) {
	cfg := opts.Config
	if !cfg.CheckValues {
		return nil, fmt.Errorf("check: CheckValues must be enabled (the data-value invariant reads the golden store)")
	}
	if cfg.Protocol.UseTimestamp {
		return nil, fmt.Errorf("check: UseTimestamp classification is time-dependent; the canonical state encoding cannot capture it")
	}
	lines := opts.Lines
	if len(lines) == 0 {
		lines = defaultLines()
	}
	if len(lines) >= cfg.L1DWays {
		return nil, fmt.Errorf("check: %d lines with %d-way L1-D caches risks capacity evictions, which the encoding does not model", len(lines), cfg.L1DWays)
	}
	r := &runner{lines: lines, cores: cfg.Cores}
	for _, m := range []**sim.Machine{&r.pristine, &r.base, &r.fork} {
		var err error
		if *m, err = sim.NewMachineWithFaults(cfg, opts.Faults); err != nil {
			return nil, err
		}
	}
	for c := 0; c < cfg.Cores; c++ {
		for _, a := range lines {
			la := mem.LineOf(a)
			r.actions = append(r.actions,
				Action{Core: c, Kind: mem.Read, Addr: la},
				Action{Core: c, Kind: mem.Write, Addr: la})
		}
	}
	if len(r.actions) > 255 {
		return nil, fmt.Errorf("check: alphabet of %d actions exceeds the path encoding", len(r.actions))
	}
	r.satCap = cfg.Protocol.RATMax
	if cfg.Protocol.PCT > r.satCap {
		r.satCap = cfg.Protocol.PCT
	}
	return r, nil
}

// reach brings base to the end of path: a fork of the pristine machine,
// then the path replayed. Every step of a queued path was explored clean,
// so none may panic now.
func (r *runner) reach(path []uint8) error {
	r.base.CopyFrom(r.pristine)
	for i, ai := range path {
		if msg := step(r.base, r.actions[ai], 0); msg != "" {
			return fmt.Errorf("check: visited prefix re-panicked at step %d: %s", i, msg)
		}
	}
	return nil
}

// explore takes one transition from base's state: it steps a on a fork of
// base and checks every invariant at the result. The state's last action
// steps base itself, saving a copy: the next reach overwrites base anyway.
// The returned encoding aliases the runner's buffer and is nil when a
// finding is not.
func (r *runner) explore(a Action, last bool) (*finding, []byte) {
	m := r.base
	if !last {
		r.fork.CopyFrom(r.base)
		m = r.fork
	}
	if msg := step(m, a, 0); msg != "" {
		return &finding{kind: "panic", detail: msg}, nil
	}
	r.snap = m.Snapshot(r.snap[:0], r.lines)
	if fd := r.findViolation(r.snap); fd != nil {
		return fd, nil
	}
	if err := m.Audit(); err != nil {
		return &finding{kind: "audit", detail: err.Error()}, nil
	}
	return nil, r.encode(r.snap)
}

// step executes one access after gap compute cycles, converting a
// simulator panic (checkVersion, protocol-state assertions) into its
// message instead of crashing the search or the counterexample encoder.
func step(m *sim.Machine, a Action, gap uint32) (panicMsg string) {
	defer func() {
		if p := recover(); p != nil {
			panicMsg = fmt.Sprint(p)
		}
	}()
	m.Step(a.Core, a.Kind, a.Addr, gap)
	return ""
}

// violation packages a finding: the decoded path, the counterexample
// trace (with the probe read appended when one exists) and the outcome of
// replaying it.
func (r *runner) violation(cfg sim.Config, f sim.Faults, path []uint8, fd *finding) (*Violation, error) {
	v := &Violation{Kind: fd.kind, Detail: fd.detail}
	for _, ai := range path {
		v.Path = append(v.Path, r.actions[ai])
	}
	trPath := v.Path
	if fd.probe != nil {
		trPath = append(append(make([]Action, 0, len(v.Path)+1), v.Path...), *fd.probe)
	}
	tr, err := Counterexample(cfg, f, trPath)
	if err != nil {
		return nil, fmt.Errorf("%w (path %v)", err, trPath)
	}
	v.Trace = tr
	v.ReplayFailure = Replay(cfg, f, tr)
	return v, nil
}
