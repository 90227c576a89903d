package check

import (
	"bytes"
	"strings"
	"testing"

	"lacc/internal/mem"
	"lacc/internal/sim"
	"lacc/internal/trace"
)

// shallow returns fast bounded options for kind: deep exhaustive runs are
// lacc-check's job (CI tier); tests keep the suite quick.
func shallow(kind sim.ProtocolKind, ackwise int) Options {
	return Options{
		Config:    Bound(kind, 2, ackwise),
		MaxDepth:  5,
		MaxStates: 1 << 14,
	}
}

// TestHealthyProtocolsBounded: no registered protocol violates SWMR or
// the data-value invariant within the shallow bound, and each variant's
// explored state space is exactly the recorded one. The counts are a
// behavioural fingerprint of the protocol code under the checker: a
// refactor that keeps every transition identical keeps them, and any
// change to what a protocol does in some reachable state moves them.
func TestHealthyProtocolsBounded(t *testing.T) {
	variants := []struct {
		name    string
		kind    sim.ProtocolKind
		ackwise int
		tweak   func(*sim.Config)

		states, transitions, depth int
		truncated                  bool
	}{
		{"adaptive", sim.ProtocolAdaptive, 0, nil, 705, 2392, 5, true},
		{"adaptive-ackwise1", sim.ProtocolAdaptive, 1, nil, 829, 2616, 5, true},
		{"adaptive-k1", sim.ProtocolAdaptive, 0, limited1, 855, 2648, 5, true},
		{"adaptive-oneway", sim.ProtocolAdaptive, 0, oneWay, 705, 2392, 5, true},
		{"mesi", sim.ProtocolMESI, 0, nil, 563, 2136, 5, true},
		{"dragon", sim.ProtocolDragon, 0, nil, 483, 1944, 5, true},
		{"dls", sim.ProtocolDLS, 0, nil, 25, 200, 3, false},
		{"neat", sim.ProtocolNeat, 0, nil, 679, 2360, 5, true},
		{"hybrid", sim.ProtocolHybrid, 0, nil, 655, 2232, 5, true},
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			opts := shallow(v.kind, v.ackwise)
			if v.tweak != nil {
				v.tweak(&opts.Config)
			}
			requireStateSpace(t, opts, v.states, v.transitions, v.depth, v.truncated)
		})
	}
}

// limited1 and oneWay are lacc-check's adaptive-k1 and adaptive-oneway
// variants: at 2 cores only a Limited-1 classifier runs Section 3.4's
// replacement and majority vote, and Adapt1-way is Section 3.7.
func limited1(c *sim.Config) { c.ClassifierK = 1 }
func oneWay(c *sim.Config)   { c.Protocol.OneWay = true }

// requireStateSpace runs opts and asserts it finds no violation and
// explores exactly the given state space.
func requireStateSpace(t *testing.T, opts Options, states, transitions, depth int, truncated bool) {
	t.Helper()
	rep, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Violation != nil {
		t.Fatalf("unexpected %s violation: %s\npath: %v",
			rep.Violation.Kind, rep.Violation.Detail, rep.Violation.Path)
	}
	if rep.States != states || rep.Transitions != transitions ||
		rep.Depth != depth || rep.Truncated != truncated {
		t.Fatalf("%s: %d states, %d transitions, depth %d, truncated=%v; want %d, %d, %d, %v",
			rep.Protocol, rep.States, rep.Transitions, rep.Depth, rep.Truncated,
			states, transitions, depth, truncated)
	}
}

// TestCheckGateDepth12: the state space the CI model-check gate and the
// benchmark's check workload explore — adaptive and MESI, 2 cores x 2
// lines, default bounds (depth 12) — pinned exactly. The shallow table
// above misses whatever a protocol does only deeper than depth 5.
func TestCheckGateDepth12(t *testing.T) {
	variants := []struct {
		name                string
		kind                sim.ProtocolKind
		tweak               func(*sim.Config)
		states, transitions int
	}{
		{"adaptive", sim.ProtocolAdaptive, nil, 25268, 141968},
		{"mesi", sim.ProtocolMESI, nil, 10363, 62056},
		{"adaptive-k1", sim.ProtocolAdaptive, limited1, 41435, 231400},
		{"adaptive-oneway", sim.ProtocolAdaptive, oneWay, 27246, 149440},
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			opts := Options{Config: Bound(v.kind, 2, 0)}
			if v.tweak != nil {
				v.tweak(&opts.Config)
			}
			requireStateSpace(t, opts, v.states, v.transitions, 12, true)
		})
	}
}

// requireViolation runs opts and asserts the checker finds a violation of
// the given kind whose counterexample trace fails when replayed with the
// seeded fault and passes on a healthy simulator — the full closed loop
// from model-level bug to execution-level regression test.
func requireViolation(t *testing.T, opts Options, wantKind string) *Violation {
	t.Helper()
	rep, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	v := rep.Violation
	if v == nil {
		t.Fatalf("seeded fault %+v found no violation (%d states, depth %d)",
			opts.Faults, rep.States, rep.Depth)
	}
	if v.Kind != wantKind {
		t.Fatalf("violation kind %q (%s), want %q", v.Kind, v.Detail, wantKind)
	}
	if len(v.Trace) != opts.Config.Cores {
		t.Fatalf("counterexample has %d streams for %d cores", len(v.Trace), opts.Config.Cores)
	}
	if v.ReplayFailure == "" {
		t.Fatalf("counterexample trace replayed clean under fault %+v\npath: %v",
			opts.Faults, v.Path)
	}
	if clean := Replay(opts.Config, sim.Faults{}, v.Trace); clean != "" {
		t.Fatalf("counterexample trace fails on a healthy simulator too: %s", clean)
	}
	return v
}

// TestDropInvalidationsSWMR: losing invalidation messages must surface as
// an SWMR violation, for the full-map baseline and both adaptive
// directory variants.
func TestDropInvalidationsSWMR(t *testing.T) {
	for _, v := range []struct {
		name    string
		kind    sim.ProtocolKind
		ackwise int
	}{
		{"mesi", sim.ProtocolMESI, 0},
		{"adaptive", sim.ProtocolAdaptive, 0},
		{"adaptive-ackwise1", sim.ProtocolAdaptive, 1},
		{"neat", sim.ProtocolNeat, 0},
	} {
		t.Run(v.name, func(t *testing.T) {
			opts := shallow(v.kind, v.ackwise)
			opts.Faults = sim.Faults{DropInvalidations: true}
			viol := requireViolation(t, opts, "swmr")
			t.Logf("%s: %s, replay: %s", viol.Kind, viol.Detail, viol.ReplayFailure)
		})
	}
}

// TestDropUpdatesDataValue: losing update pushes leaves the directory
// structurally intact but a sharer's copy stale — a pure data-value
// violation whose probe read makes the replay fail the inline version
// check. Dragon pushes updates to every sharer; hybrid pushes them to its
// private-mode sharers.
func TestDropUpdatesDataValue(t *testing.T) {
	for _, kind := range []sim.ProtocolKind{sim.ProtocolDragon, sim.ProtocolHybrid} {
		t.Run(string(kind), func(t *testing.T) {
			opts := shallow(kind, 0)
			opts.Faults = sim.Faults{DropUpdates: true}
			v := requireViolation(t, opts, "data-value")
			if !strings.Contains(v.ReplayFailure, "coherence violation") &&
				!strings.Contains(v.ReplayFailure, "audit") {
				t.Fatalf("replay failure does not look like a value check: %s", v.ReplayFailure)
			}
		})
	}
}

// TestDropWordWritesDataValue: losing DLS remote word writes at the home
// slice advances the golden store while the home L2 line — the single
// point of coherence — keeps its stale version, the directoryless
// analogue of a lost store.
func TestDropWordWritesDataValue(t *testing.T) {
	opts := shallow(sim.ProtocolDLS, 0)
	opts.Faults = sim.Faults{DropWordWrites: true}
	v := requireViolation(t, opts, "data-value")
	if !strings.Contains(v.ReplayFailure, "coherence violation") &&
		!strings.Contains(v.ReplayFailure, "audit") {
		t.Fatalf("replay failure does not look like a value check: %s", v.ReplayFailure)
	}
}

// TestCounterexampleSurvivesTraceFormat: a counterexample round-tripped
// through the binary trace format (WriteFile/ReadFile) still reproduces
// the failure — the property that makes checker output storable as a
// permanent regression trace.
func TestCounterexampleSurvivesTraceFormat(t *testing.T) {
	opts := shallow(sim.ProtocolMESI, 0)
	opts.Faults = sim.Faults{DropInvalidations: true}
	v := requireViolation(t, opts, "swmr")

	var buf bytes.Buffer
	if err := trace.WriteFile(&buf, v.Trace); err != nil {
		t.Fatal(err)
	}
	decoded, err := trace.ReadFile(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if failure := Replay(opts.Config, opts.Faults, decoded); failure == "" {
		t.Fatal("decoded counterexample replayed clean")
	}
}

// TestFindViolationSWMR: the invariant checker itself, on a hand-built
// snapshot with two writable copies.
func TestFindViolationSWMR(t *testing.T) {
	r := &runner{cores: 2}
	snap := []sim.LineSnapshot{{
		Addr:   0x100000,
		Golden: 1,
		Copies: []sim.CopySnapshot{
			{Core: 0, State: sim.CopyModified, Version: 1},
			{Core: 1, State: sim.CopyExclusive, Version: 1},
		},
	}}
	f := r.findViolation(snap)
	if f == nil || f.kind != "swmr" {
		t.Fatalf("want swmr finding, got %+v", f)
	}
}

// TestFindViolationDataValue: a stale shared copy is flagged with a probe
// read on the stale holder.
func TestFindViolationDataValue(t *testing.T) {
	r := &runner{cores: 2}
	snap := []sim.LineSnapshot{{
		Addr:   0x100040,
		Golden: 3,
		Copies: []sim.CopySnapshot{
			{Core: 0, State: sim.CopyShared, Version: 3},
			{Core: 1, State: sim.CopyShared, Version: 2},
		},
	}}
	f := r.findViolation(snap)
	if f == nil || f.kind != "data-value" {
		t.Fatalf("want data-value finding, got %+v", f)
	}
	if f.probe == nil || f.probe.Core != 1 || f.probe.Kind != mem.Read {
		t.Fatalf("want probe read on core 1, got %+v", f.probe)
	}
}

// TestRejectsTimestampConfig: timestamp-driven classification cannot be
// state-hashed; the checker must refuse it rather than explore unsoundly.
func TestRejectsTimestampConfig(t *testing.T) {
	opts := shallow(sim.ProtocolAdaptive, 0)
	opts.Config.Protocol.UseTimestamp = true
	if _, err := Run(opts); err == nil {
		t.Fatal("UseTimestamp config accepted")
	}
}

// TestExploreAllocs pins the allocations of one explored transition that
// reaches an already-visited state: fork, step, snapshot, invariants,
// audit, encoding and the visited lookup together allocate nothing. Only
// a new state pays, for its visited key and its queued path.
func TestExploreAllocs(t *testing.T) {
	for _, kind := range []sim.ProtocolKind{sim.ProtocolAdaptive, sim.ProtocolMESI, sim.ProtocolHybrid} {
		t.Run(string(kind), func(t *testing.T) {
			r, err := newRunner(Options{Config: Bound(kind, 2, 0)})
			if err != nil {
				t.Fatal(err)
			}
			// c0 W line0, c1 R line0, c1 W line1, c0 R line1: both lines
			// shared or owned across cores, so each action runs a miss
			// transaction, an upgrade or a hit.
			if err := r.reach([]uint8{1, 4, 7, 2}); err != nil {
				t.Fatal(err)
			}
			visited := map[string]struct{}{}
			exploreAll := func() {
				for _, a := range r.actions {
					fd, enc := r.explore(a, false)
					if fd != nil {
						t.Fatalf("%v: %s: %s", a, fd.kind, fd.detail)
					}
					if _, ok := visited[string(enc)]; !ok {
						visited[string(enc)] = struct{}{}
					}
				}
			}
			exploreAll()
			n := len(visited)
			allocs := testing.AllocsPerRun(20, exploreAll)
			if len(visited) != n {
				t.Fatalf("re-exploring the same state found %d new states", len(visited)-n)
			}
			if perTransition := allocs / float64(len(r.actions)); perTransition != 0 {
				t.Fatalf("%.2f allocations per explored transition, want 0", perTransition)
			}
		})
	}
}
