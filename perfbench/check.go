package main

import (
	"fmt"
	"time"

	"lacc/internal/check"
	"lacc/internal/mem"
	"lacc/internal/sim"
	"lacc/internal/workloads"
)

// checkKinds are the protocols the CI model-check gate bounds to depth 12.
var checkKinds = []sim.ProtocolKind{sim.ProtocolAdaptive, sim.ProtocolMESI}

// checkDepth is the gate's interleaving bound.
const checkDepth = 12

// checkWL is the check workload: check.Run over check.Bound(kind, 2, 0)
// for adaptive and MESI. It is the only workload that runs
// internal/check.
type checkWL struct {
	seed    uint64
	lines   []mem.Addr
	reports []*check.Report
	digest  string
	notes   []string
}

func newCheck(seed uint64) *checkWL {
	// Two consecutive lines of one page, as in the gate; the seed picks
	// the page, which moves the lines' homes but not the size of the
	// state space.
	page := mem.Addr(0x100000 + newSplitMix(seed).intn(1<<16)*4096)
	return &checkWL{seed: seed, lines: []mem.Addr{page, page + mem.LineBytes}}
}

func (c *checkWL) setup() error {
	// Warm-up: a shallow check of each protocol.
	for _, k := range checkKinds {
		if _, err := check.Run(check.Options{Config: check.Bound(k, 2, 0), Lines: c.lines, MaxDepth: 6}); err != nil {
			return err
		}
	}
	return nil
}

func (c *checkWL) pass(tr *tracer, parent int64) passOutcome {
	p := passOutcome{ops: len(checkKinds)}
	var reports []*check.Report
	start := time.Now()
	for _, k := range checkKinds {
		id := tr.start("check.Run."+string(k), parent, 0)
		t0 := time.Now()
		rep, err := check.Run(check.Options{Config: check.Bound(k, 2, 0), Lines: c.lines, MaxDepth: checkDepth})
		p.idle -= time.Since(t0)
		tr.end(id)
		switch {
		case err != nil:
			c.note("%s: %v", k, err)
			p.failed++
			continue
		case rep.Violation != nil:
			c.note("%s: %s violation: %s", k, rep.Violation.Kind, rep.Violation.Detail)
			p.failed++
		}
		p.accesses += float64(rep.Transitions)
		reports = append(reports, rep)
	}
	// The checker runs on one goroutine: its idle time is the loop around
	// the runs.
	p.wall = time.Since(start)
	p.idle += p.wall
	d := digestOf(reports)
	if c.reports == nil {
		c.reports, c.digest = reports, d
		switch ok, recorded := verify("check", c.seed, c.expectation()); {
		case !recorded:
			c.note("digest check seed %d sha256 %s unverified (no value recorded for this seed)", c.seed, d)
		case !ok:
			c.note("digest check seed %d sha256 %s does not match the recorded value", c.seed, d)
			p.failed = p.ops
		default:
			c.note("digest check seed %d sha256 %s verified", c.seed, d)
		}
	} else if d != c.digest {
		c.note("reports differ from the first pass")
		p.failed = p.ops
	}
	return p
}

func (c *checkWL) expectation() expectation { return expectation{Digest: c.digest} }

// layers replays, as the check workload's corpora, the six serve
// benchmarks on the checked two-core machine.
func (c *checkWL) layers(tr *tracer, parent int64, passes []passOutcome) (map[string]float64, error) {
	refs := make([]corpusRef, len(serveBenches))
	for i, b := range serveBenches {
		refs[i] = corpusRef{b, workloads.Spec{Cores: 2, Scale: 0.02, Seed: c.seed}}
	}
	return replayLayers(tr, parent, refs, func(k sim.ProtocolKind) sim.Config {
		return check.Bound(k, 2, 0)
	}, 1, passes)
}

func (c *checkWL) info() []string {
	var out []string
	for _, r := range c.reports {
		out = append(out, fmt.Sprintf("check %s lines %#x %#x: %d states, %d transitions, depth %d, truncated %v",
			r.Protocol, c.lines[0], c.lines[1], r.States, r.Transitions, r.Depth, r.Truncated))
	}
	return append(out, c.notes...)
}

func (c *checkWL) close() {}

func (c *checkWL) note(format string, args ...any) {
	c.notes = append(c.notes, fmt.Sprintf(format, args...))
}

// splitMix is a small deterministic generator for benchmark inputs.
type splitMix struct{ s uint64 }

func newSplitMix(seed uint64) *splitMix { return &splitMix{seed} }

func (r *splitMix) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *splitMix) intn(n int) int { return int(r.next() % uint64(n)) }
