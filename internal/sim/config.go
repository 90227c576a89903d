// Package sim is the multicore simulator: it executes per-core access
// streams against the full model stack (private L1s, R-NUCA shared L2 with
// integrated ACKwise directory, the locality-aware adaptive coherence
// protocol, 2-D mesh NoC and DRAM controllers) and reports the paper's
// evaluation metrics.
//
// The simulator is lax in the Graphite sense: cores advance their own
// clocks; the globally earliest core executes its next operation as one
// atomic transaction that walks the whole protocol path and returns a
// latency decomposed into the paper's completion-time components. Shared
// resources (mesh links, DRAM controllers, home-line serialization) are
// modeled with next-free-time queues, and a golden versioned store checks
// functional correctness of every read.
package sim

import (
	"fmt"
	"slices"

	"lacc/internal/core"
	"lacc/internal/energy"
)

// Config assembles the architectural parameters of Table 1 plus protocol
// and workload-independent modelling knobs.
type Config struct {
	// Cores is the number of tiles; MeshWidth is the mesh X dimension and
	// must divide Cores.
	Cores     int
	MeshWidth int

	// L1/L2 cache geometry and access latency (cycles).
	L1ISizeKB, L1IWays, L1ILatency int
	L1DSizeKB, L1DWays, L1DLatency int
	L2SizeKB, L2Ways, L2Latency    int

	// AckwisePointers is the ACKwise-p pointer count; values >= Cores give
	// a full-map directory.
	AckwisePointers int

	// Off-chip memory (Table 1: 8 controllers, 5 GBps each, 100 ns).
	MemControllers    int
	DRAMLatencyCycles int
	DRAMBytesPerCycle float64

	// HopLatency is the mesh per-hop latency (Table 1: 2 cycles).
	HopLatency int

	// ProtocolKind selects the coherence protocol: ProtocolAdaptive (the
	// paper's locality-aware protocol, also the empty-string default),
	// ProtocolMESI (full-map MESI directory baseline), ProtocolDragon
	// (write-update baseline), ProtocolDLS (directoryless shared-LLC
	// remote access), ProtocolNeat (single-pointer directory with
	// self-invalidation) or ProtocolHybrid (per-line MESI/Dragon
	// switching).
	ProtocolKind ProtocolKind

	// Protocol holds the locality-aware protocol parameters; ClassifierK
	// selects the Limited-k classifier (<= 0 means Complete). Both are
	// consulted only by ProtocolAdaptive.
	Protocol    core.Params
	ClassifierK int

	// Energy holds the per-event dynamic energy constants.
	Energy energy.Params

	// CodeLines is the instruction footprint per workload in cache lines;
	// FetchPerOp is the number of instruction fetches charged per trace
	// operation in addition to one per compute-gap cycle.
	CodeLines  int
	FetchPerOp float64

	// Synchronization costs: a barrier release and a lock grant each add a
	// fixed latency approximating their round trips.
	BarrierLatency int
	LockLatency    int

	// PageMoveLatency is charged (off-chip component) when R-NUCA
	// reclassifies a page from private to shared and its lines migrate out
	// of the old home slice.
	PageMoveLatency int

	// VictimReplication enables the Victim Replication baseline (Zhang &
	// Asanovic, Section 2.1 of the paper): clean Shared-state L1 victims
	// are replicated into the local L2 slice (displacing only other
	// replicas or free ways) and L1 misses are serviced from the local
	// replica when present. The paper's critique — victims are replicated
	// irrespective of their reuse — is what the comparison experiment
	// demonstrates. Usually combined with PCT 1.
	VictimReplication bool

	// CheckValues enables the golden-store functional checker.
	CheckValues bool

	// TrackUtilization enables the Figure 1/2 eviction/invalidation
	// utilization histograms.
	TrackUtilization bool
}

// MaxCores is the largest supported core count. Tile identities are packed
// into int16 fields throughout the hot structures (cache.Line.Home,
// directory owner and sharer pointers), so core counts must stay below
// 1<<15; Validate rejects anything larger with a LimitError instead of
// letting the narrowing conversions truncate silently.
const MaxCores = 1<<15 - 1

// LimitError reports a configuration field exceeding a structural limit of
// the engine's packed representations.
type LimitError struct {
	Field string
	Value int
	Max   int
}

func (e *LimitError) Error() string {
	return fmt.Sprintf("sim: %s=%d exceeds the supported maximum %d", e.Field, e.Value, e.Max)
}

// FeatureError reports a configuration feature enabled under a protocol
// kind that does not support it. Like LimitError it is a typed rejection:
// callers (the server's config override layer, the experiment sweepers)
// can distinguish an unsupported combination from a malformed value.
type FeatureError struct {
	Feature  string
	Protocol ProtocolKind
}

func (e *FeatureError) Error() string {
	return fmt.Sprintf("sim: %s is not supported under protocol %q", e.Feature, e.Protocol)
}

// Default returns the paper's Table 1 configuration with the protocol
// defaults (PCT 4, RATmax 16, 2 RAT levels, Limited-3 classifier).
func Default() Config {
	return Config{
		Cores:     64,
		MeshWidth: 8,

		L1ISizeKB: 16, L1IWays: 4, L1ILatency: 1,
		L1DSizeKB: 32, L1DWays: 4, L1DLatency: 1,
		L2SizeKB: 256, L2Ways: 8, L2Latency: 7,

		AckwisePointers: 4,

		MemControllers:    8,
		DRAMLatencyCycles: 100,
		DRAMBytesPerCycle: 5,

		HopLatency: 2,

		ProtocolKind: ProtocolAdaptive,
		Protocol:     core.DefaultParams(),
		ClassifierK:  3,

		Energy: energy.DefaultParams(),

		CodeLines:  96,
		FetchPerOp: 2,

		BarrierLatency:  100,
		LockLatency:     50,
		PageMoveLatency: 300,

		CheckValues:      true,
		TrackUtilization: true,
	}
}

// protocolKind returns the configured protocol kind, defaulting the empty
// string to the adaptive protocol so the zero Config keeps its historical
// meaning.
func (c Config) protocolKind() ProtocolKind {
	if c.ProtocolKind == "" {
		return ProtocolAdaptive
	}
	return c.ProtocolKind
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Cores <= 0 || c.MeshWidth <= 0 || c.Cores%c.MeshWidth != 0 {
		return fmt.Errorf("sim: bad mesh geometry cores=%d width=%d", c.Cores, c.MeshWidth)
	}
	if c.Cores > MaxCores {
		return &LimitError{Field: "Cores", Value: c.Cores, Max: MaxCores}
	}
	if !slices.Contains(ProtocolKinds(), c.protocolKind()) {
		return fmt.Errorf("sim: unknown protocol %q (registered: %v)", c.ProtocolKind, ProtocolKinds())
	}
	if c.VictimReplication && c.protocolKind() != ProtocolAdaptive {
		return &FeatureError{Feature: "victim replication", Protocol: c.protocolKind()}
	}
	if c.L1ISizeKB <= 0 || c.L1DSizeKB <= 0 || c.L2SizeKB <= 0 {
		return fmt.Errorf("sim: cache sizes must be positive")
	}
	if c.L1IWays <= 0 || c.L1DWays <= 0 || c.L2Ways <= 0 {
		return fmt.Errorf("sim: associativities must be positive")
	}
	if c.AckwisePointers <= 0 {
		return fmt.Errorf("sim: ACKwise pointer count must be positive")
	}
	if c.MemControllers <= 0 || c.MemControllers > c.Cores {
		return fmt.Errorf("sim: %d memory controllers for %d cores", c.MemControllers, c.Cores)
	}
	if c.DRAMBytesPerCycle <= 0 {
		return fmt.Errorf("sim: DRAM bandwidth must be positive")
	}
	if c.CodeLines <= 0 {
		return fmt.Errorf("sim: code footprint must be positive")
	}
	if err := c.Protocol.Validate(); err != nil {
		return err
	}
	return nil
}
