package sim

import (
	"lacc/internal/energy"
	"lacc/internal/mem"
	"lacc/internal/stats"
)

// Result is the outcome of one simulation run.
type Result struct {
	// Protocol names the coherence protocol that produced this result
	// (its ProtocolKind).
	Protocol string
	// CompletionCycles is the parallel-region completion time: the maximum
	// finish time over all cores.
	CompletionCycles mem.Cycle
	// Time is the completion-time breakdown summed over all cores
	// (normalize by Cores for per-core averages).
	Time stats.TimeBreakdown
	// Energy is the dynamic energy breakdown of caches, directory and
	// network.
	Energy stats.EnergyBreakdown
	// Meter holds the raw energy event counts behind Energy.
	Meter energy.Meter

	// L1D aggregates data-cache access outcomes over all cores.
	L1D stats.MissStats
	// L1IHits and L1IMisses count instruction fetch line probes.
	L1IHits, L1IMisses uint64

	// InvalidationUtil and EvictionUtil are the Figure 1/2 histograms.
	InvalidationUtil stats.UtilizationHistogram
	EvictionUtil     stats.UtilizationHistogram

	// Protocol activity counters.
	Promotions             uint64 // remote -> private transitions
	Demotions              uint64 // private -> remote transitions
	WordReads              uint64 // reads serviced as remote word accesses
	WordWrites             uint64 // writes serviced as remote word accesses
	Invalidations          uint64
	BroadcastInvalidations uint64
	// UpdateWrites counts per-sharer word updates pushed by a write-update
	// protocol (zero under invalidation-based protocols).
	UpdateWrites uint64
	// SelfInvalidations counts shared copies a core dropped from its own
	// L1 at synchronization points under a self-invalidating protocol
	// (zero otherwise).
	SelfInvalidations uint64

	// Network and DRAM activity.
	RouterFlits, LinkFlits, Messages uint64
	DRAMReads, DRAMWrites            uint64
	DRAMQueueCycles                  uint64

	// R-NUCA activity.
	PrivatePages, SharedPages, Reclassifications uint64

	// Victim-replication activity (zero unless Config.VictimReplication).
	ReplicaHits, ReplicaInserts, ReplicaEvictions uint64

	// DataAccesses counts all L1-D accesses (hits + misses).
	DataAccesses uint64

	// PerCore holds each core's individual statistics (index = core id).
	PerCore []CoreStats
}

// CoreStats is one core's slice of the run statistics.
type CoreStats struct {
	// Finish is the core's local clock when its stream ended.
	Finish mem.Cycle
	// Time is the core's completion-time breakdown.
	Time stats.TimeBreakdown
	// L1D is the core's data-cache outcome mix.
	L1D stats.MissStats
	// L1IHits and L1IMisses count the core's instruction fetch probes.
	L1IHits, L1IMisses uint64
}

// Imbalance returns max/mean core finish time, a load-balance figure of
// merit (1.0 = perfectly balanced).
func (r *Result) Imbalance() float64 {
	if len(r.PerCore) == 0 {
		return 1
	}
	var sum, maxF float64
	for i := range r.PerCore {
		f := float64(r.PerCore[i].Finish)
		sum += f
		if f > maxF {
			maxF = f
		}
	}
	if sum == 0 {
		return 1
	}
	return maxF / (sum / float64(len(r.PerCore)))
}

// PerCoreTime returns the average per-core time breakdown.
func (r *Result) PerCoreTime(cores int) stats.TimeBreakdown {
	if cores <= 0 {
		return r.Time
	}
	return r.Time.Scale(1 / float64(cores))
}

// L1DMissRate returns the L1-D miss rate in percent.
func (r *Result) L1DMissRate() float64 { return r.L1D.Rate() }
