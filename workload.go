package lacc

import (
	"lacc/internal/trace"
	"lacc/internal/workloads"
)

// Stream yields one core's access sequence to the simulator.
type Stream = trace.Stream

// GenFunc emits one core's trace through an Emitter; returning ends the
// stream. Generators run to completion one after another on the caller's
// goroutine, so a generator must not wait on another; a generator's panic
// reaches the caller.
type GenFunc = trace.GenFunc

// Emitter is the trace construction API handed to generators: Read, Write,
// Compute, Barrier, Lock and Unlock.
type Emitter = trace.Emitter

// WorkloadInfo describes one of the 21 built-in benchmarks (Table 2).
type WorkloadInfo struct {
	// Name is the canonical identifier accepted by RunWorkload.
	Name string
	// Label is the display label used in the paper's figures.
	Label string
	// Suite is the benchmark suite (SPLASH-2, PARSEC, ...).
	Suite string
	// PaperSize is the problem size the paper evaluated (Table 2).
	PaperSize string
	// DefaultSize is this reproduction's problem size at scale 1.0.
	DefaultSize string
}

// Workloads lists the built-in benchmarks in Table 2 order.
func Workloads() []WorkloadInfo {
	all := workloads.All()
	out := make([]WorkloadInfo, len(all))
	for i, w := range all {
		out[i] = WorkloadInfo{
			Name:        w.Name,
			Label:       w.Label,
			Suite:       w.Suite,
			PaperSize:   w.PaperSize,
			DefaultSize: w.DefaultSize,
		}
	}
	return out
}

// WorkloadStreams materializes the named benchmark's trace and returns its
// per-core streams without simulating them (useful for inspecting or
// recording traces).
func WorkloadStreams(name string, cores int, scale float64, seed uint64) ([]Stream, bool) {
	w, ok := workloads.ByName(name)
	if !ok {
		return nil, false
	}
	return w.Streams(workloads.Spec{Cores: cores, Scale: scale, Seed: seed}), true
}
