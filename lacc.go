// Package lacc is a from-scratch reproduction of "The Locality-Aware
// Adaptive Cache Coherence Protocol" (Kurian, Khan, Devadas — ISCA 2013).
//
// The library simulates a tiled shared-memory multicore — private L1
// caches, a physically distributed shared L2 with Reactive-NUCA placement
// and an integrated ACKwise limited directory, a 2-D mesh network-on-chip
// and off-chip memory controllers — running the paper's locality-aware
// protocol: every (cache line, core) pair is classified at runtime as a
// private sharer (full line cached in L1) or a remote sharer (word-granular
// round trips to the shared L2), driven by measured per-line utilization
// against the Private Caching Threshold (PCT).
//
// Quick start:
//
//	cfg := lacc.DefaultConfig()          // Table 1: 64 cores, PCT 4, Limited3
//	res, err := lacc.RunWorkload(cfg, "streamcluster", 1.0, 0)
//	if err != nil { ... }
//	fmt.Println(res.CompletionCycles, res.Energy.Total())
//
// Custom workloads are ordinary Go functions emitting memory accesses:
//
//	gens := make([]lacc.GenFunc, cfg.Cores)
//	for c := range gens {
//		gens[c] = func(e *lacc.Emitter) {
//			e.Read(lacc.DataBase)
//			e.Barrier(1)
//		}
//	}
//	res, err := lacc.Run(cfg, lacc.NewStreams(gens))
//
// The experiments behind every figure and table of the paper's evaluation
// are available through the Experiment* functions and the lacc-bench tool,
// and as a long-running HTTP service (lacc-serve, or NewServerHandler for
// embedding) that caches and coalesces simulations across callers; see
// docs/API.md.
package lacc

import (
	"fmt"

	"lacc/internal/sim"
	"lacc/internal/trace"
	"lacc/internal/workloads"
)

// Run simulates one access stream per core against the machine described
// by cfg and returns the aggregated metrics. It consumes (and closes) the
// streams; build fresh streams for every run.
func Run(cfg Config, streams []Stream) (*Result, error) {
	s, err := sim.New(cfg)
	if err != nil {
		return nil, err
	}
	return s.Run(streams)
}

// RunWorkload builds the named benchmark at the given problem scale and
// runs it under cfg. Scale 1.0 is the reduced laptop-scale default; seed
// perturbs the deterministic pseudo-random choices of randomized kernels.
func RunWorkload(cfg Config, name string, scale float64, seed uint64) (*Result, error) {
	w, ok := workloads.ByName(name)
	if !ok {
		return nil, fmt.Errorf("lacc: unknown workload %q (see lacc.Workloads)", name)
	}
	return Run(cfg, w.Streams(workloads.Spec{Cores: cfg.Cores, Scale: scale, Seed: seed}))
}

// RunGenerators runs each generator to completion, one after another on
// the calling goroutine, and simulates their traces under cfg (NewStreams
// composed with Run). A generator's panic propagates to the caller.
func RunGenerators(cfg Config, gens []GenFunc) (*Result, error) {
	return Run(cfg, NewStreams(gens))
}

// NewStream runs gen to completion on the calling goroutine and returns a
// replay stream over the accesses it emitted.
func NewStream(gen GenFunc) Stream { return trace.BuildCorpus([]GenFunc{gen}).Stream(0) }

// NewStreams runs the generators to completion, one after another on the
// calling goroutine, into one materialized trace, and returns one replay
// stream per generator.
func NewStreams(gens []GenFunc) []Stream { return trace.BuildCorpus(gens).Streams() }

// StreamFromAccesses wraps a pre-built access slice as a Stream (useful for
// replaying recorded traces).
func StreamFromAccesses(accesses []Access) Stream { return trace.FromSlice(accesses) }
