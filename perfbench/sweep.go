package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"
	"time"

	"lacc/internal/experiments"
	"lacc/internal/server"
	"lacc/internal/sim"
	"lacc/internal/workloads"
)

// sweep is the sweep64 and mesh256 workload: every selected benchmark under
// all six protocols through experiments.ProtocolComparison on a fresh
// session, which is what lacc-bench runs. Corpora are built in set-up.
type sweep struct {
	name string
	opts experiments.Options

	// Outputs of the first pass; later passes must reproduce them bit for
	// bit (the simulator is deterministic).
	digest             string
	perSim             map[string]string
	completion, energy float64
	notes              []string
}

// newSweep64 is the paper's Table 1 machine (64 cores, 8x8 mesh, ACKwise4)
// on all 21 benchmarks. Its time goes to the engine's L1-hit path and each
// protocol's miss transaction.
func newSweep64(seed uint64) *sweep {
	return &sweep{name: "sweep64", opts: experiments.Options{
		Cores: 64, MeshWidth: 8, Scale: 0.1, Seed: seed, Parallelism: 2,
		Benchmarks: workloads.Names(),
	}}
}

// mesh256Benches are the benchmarks of the 256-core workload. radix is
// left out: alone it takes longer than the other five together.
var mesh256Benches = []string{"streamcluster", "canneal", "dfs", "barnes", "blackscholes"}

// newMesh256 is 256 cores on a 16x16 mesh. Its time shifts to ACKwise
// overflow broadcasts, 256-wide sharer sets, a deep run queue and
// simulator state to reset and hold.
func newMesh256(seed uint64) *sweep {
	return &sweep{name: "mesh256", opts: experiments.Options{
		Cores: 256, MeshWidth: 16, Scale: 0.1, Seed: seed, Parallelism: 2,
		Benchmarks: mesh256Benches,
	}}
}

func (s *sweep) spec() workloads.Spec {
	return workloads.Spec{Cores: s.opts.Cores, Scale: s.opts.Scale, Seed: s.opts.Seed}
}

func (s *sweep) setup() error {
	workloads.FlushCorpora()
	smallest, least := "", ^uint64(0)
	for _, b := range s.opts.Benchmarks {
		if n := sourceTotal(workloads.MustByName(b).Corpus(s.spec())); n < least {
			smallest, least = b, n
		}
	}
	// Warm-up: one comparison on the smallest corpus runs every protocol
	// once and leaves Parallelism simulators of this geometry pooled.
	o := s.opts
	o.Benchmarks = []string{smallest}
	o.Session = experiments.NewSession()
	_, err := experiments.ProtocolComparison(o, nil)
	return err
}

func (s *sweep) pass(tr *tracer, parent int64) passOutcome {
	o := s.opts
	o.Session = experiments.NewSession()
	ops := len(o.Benchmarks) * len(protocolKinds)
	p := passOutcome{ops: ops}
	// Traced passes time each job's completion. Once the queue is empty a
	// worker that finishes has nothing left to do, so after completion
	// total-k only k workers are busy.
	var mu sync.Mutex
	var completions []time.Time
	if tr != nil {
		o.Progress = func(done, total int) {
			if done > 0 {
				mu.Lock()
				completions = append(completions, time.Now())
				mu.Unlock()
			}
		}
	}
	id := tr.start("experiments.ProtocolComparison", parent, 0)
	t0 := time.Now()
	res, err := experiments.ProtocolComparison(o, nil)
	end := time.Now()
	p.wall = end.Sub(t0)
	tr.end(id)
	for k := 1; k < o.Parallelism && k < len(completions); k++ {
		p.idle += end.Sub(completions[len(completions)-1-k])
	}
	if err != nil {
		s.note("pass failed: %v", err)
		p.failed = ops
		return p
	}
	st := o.Session.Stats()
	p.tiers = [4]float64{float64(st.Simulated), float64(st.Hits), float64(st.DiskHits), float64(st.PeerHits)}

	perSim := map[string]string{}
	for bench, byKind := range res.Results {
		for kind, r := range byKind {
			p.accesses += float64(r.DataAccesses)
			perSim[bench+"/"+string(kind)] = digestOf(r)
		}
	}
	whole := digestOf(res)
	if s.perSim == nil {
		s.perSim, s.digest = perSim, whole
		s.completion = res.Completion[sim.ProtocolAdaptive]
		s.energy = res.Energy[sim.ProtocolAdaptive]
		p.failed += s.verifyExpected()
	}
	for k, d := range s.perSim {
		if perSim[k] != d {
			s.note("%s differs from the first pass", k)
			p.failed++
		}
	}
	if len(perSim) != ops {
		s.note("pass produced %d results, want %d", len(perSim), ops)
		p.failed = ops
	}
	return p
}

// verifyExpected compares the first pass with the values recorded for
// this seed and returns the number of failed simulations (all of them on
// a mismatch: the digest covers the whole comparison).
func (s *sweep) verifyExpected() int {
	ok, recorded := verify(s.name, s.opts.Seed, s.expectation())
	switch {
	case !recorded:
		s.note("digest %s seed %d sha256 %s unverified (no value recorded for this seed)", s.name, s.opts.Seed, s.digest)
	case !ok:
		s.note("digest %s seed %d sha256 %s does not match the recorded value", s.name, s.opts.Seed, s.digest)
		return len(s.perSim)
	default:
		s.note("digest %s seed %d sha256 %s verified", s.name, s.opts.Seed, s.digest)
	}
	return 0
}

func (s *sweep) expectation() expectation {
	return expectation{Digest: s.digest, Values: map[string]float64{
		"adaptive_completion_ratio": s.completion,
		"adaptive_energy_ratio":     s.energy,
	}}
}

func (s *sweep) layers(tr *tracer, parent int64, passes []passOutcome) (map[string]float64, error) {
	refs := make([]corpusRef, len(s.opts.Benchmarks))
	for i, b := range s.opts.Benchmarks {
		refs[i] = corpusRef{b, s.spec()}
	}
	base := s.opts.BaseConfig()
	return replayLayers(tr, parent, refs, withKind(base), s.opts.Parallelism, passes)
}

func (s *sweep) info() []string {
	return append([]string{fmt.Sprintf("%s simulated geomean adaptive/MESI: completion %.6f energy %.6f",
		s.name, s.completion, s.energy)}, s.notes...)
}

func (s *sweep) close() {}

func (s *sweep) note(format string, args ...any) {
	s.notes = append(s.notes, fmt.Sprintf(format, args...))
}

// digestOf is the SHA-256 of v's canonical encoding, the encoding served
// responses use.
func digestOf(v any) string {
	b, err := server.EncodeCanonical(v)
	if err != nil {
		return "unencodable: " + err.Error()
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
