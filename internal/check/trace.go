package check

// Counterexample encoding: a violating interleaving, re-expressed as the
// per-core trace streams of docs/TRACE_FORMAT.md so it replays through
// sim.Run and the differential harness.
//
// The engine selects the core whose (clock, id) key is globally
// smallest; an access's key is the completion time of its predecessor on
// the same core, and its Gap — applied after selection, before the
// transaction — advances the clock first, so a gap both positions the
// core's next key and sets the current transaction's simulated time. The
// encoder schedules global step j (1-based) into the key interval
// [j·S, j·S + S/2) for a spacing S far above any single-transaction
// latency: keys then occupy disjoint, ordered intervals and the engine's
// selection order equals the checker's interleaving exactly.
//
// Real accesses all carry gap 0. They must: the mesh links and DRAM
// controllers are next-free-time queues that assume transaction times
// never decrease in execution order, and a real access carrying the gap
// to its core's next interval would execute its transaction at that
// later time — booking shared resources ahead of other cores'
// intermediate steps and delaying them out of their intervals whenever
// two cores' next-pointers cross. With gap 0 a real transaction runs at
// its own key, so times are monotone in execution order and each step
// completes within one transaction latency.
//
// The gaps ride on padding reads of a per-core private line instead.
// Positioning pads — pure L1/L1-I hits touching no shared resource, so
// their late simulated times cannot interfere — are interposed before
// each core's first real access (a first access's key is 0 and cannot be
// moved by its own gap) and between each pair of consecutive real
// accesses of a core, each carrying the gap that lands the successor at
// its interval start. A pad hits only because warm-up pads first
// cold-miss the pad line and walk the instruction footprint into the
// L1-I at small times, far below the first real interval. Exhausted
// cores retire at their last completion and are never selected again.

import (
	"fmt"
	"math"

	"lacc/internal/mem"
	"lacc/internal/sim"
	"lacc/internal/trace"
)

// stepSpacing separates scheduled steps; transactions complete within a
// few thousand cycles (DRAM, page moves included), far below it.
const stepSpacing = 1 << 20

// padBase places the per-core padding lines: distinct private pages, far
// from both the checker's data lines and the instruction region.
const padBase mem.Addr = 1 << 30

// maxWarmProbes mirrors the simulator's per-operation instruction-probe
// cap: one warm-up read advances the L1-I walk by at most this many lines.
const maxWarmProbes = 8

func padAddr(coreID int) mem.Addr {
	return padBase + mem.Addr(coreID)*mem.PageBytes
}

// Counterexample renders path as per-core trace-format streams whose
// replay through sim.Run executes exactly path's interleaving. The final
// step may panic (that can be the violation itself); any earlier failure
// is an error.
func Counterexample(cfg sim.Config, f sim.Faults, path []Action) ([][]mem.Access, error) {
	if len(path) == 0 {
		return nil, fmt.Errorf("check: empty counterexample path")
	}
	m, err := sim.NewMachineWithFaults(cfg, f)
	if err != nil {
		return nil, err
	}
	cores := cfg.Cores

	// next[j] is the next path index on step j's core (-1 none); after
	// the backward pass, first[c] is core c's first step index.
	next := make([]int, len(path))
	first := make([]int, cores)
	for c := range first {
		first[c] = -1
	}
	for j := len(path) - 1; j >= 0; j-- {
		c := path[j].Core
		if c < 0 || c >= cores {
			return nil, fmt.Errorf("check: step %d on core %d of %d", j, c, cores)
		}
		next[j] = first[c]
		first[c] = j
	}

	streams := make([][]mem.Access, cores)
	// target returns the key interval start of 0-based path index j.
	target := func(j int) uint64 { return uint64(j+1) * stepSpacing }

	// Padding reads, executed (and replayed) before every real step.
	pad := func(c int, gap uint32) error {
		streams[c] = append(streams[c], mem.Access{Kind: mem.Read, Addr: padAddr(c), Gap: gap})
		if msg := step(m, Action{Core: c, Kind: mem.Read, Addr: padAddr(c)}, gap); msg != "" {
			return fmt.Errorf("check: padding access on core %d panicked: %s", c, msg)
		}
		return nil
	}
	// Warm-up phase: fill each active core's pad line and code footprint at
	// small times, all far below the first real step's interval. The gap of
	// 64 compute cycles feeds instrFetch enough instructions for a full
	// 8-probe walk per read; ceil(CodeLines/8) reads cover the footprint
	// and flip the core to the warm (resource-free) fetch path.
	const warmupGap = 64
	warmupReads := (cfg.CodeLines + maxWarmProbes - 1) / maxWarmProbes
	for c := 0; c < cores; c++ {
		if first[c] < 0 {
			continue
		}
		for i := 0; i < warmupReads; i++ {
			if err := pad(c, warmupGap); err != nil {
				return nil, err
			}
		}
	}
	// Positioning phase: a pure L1/L1-I hit per active core whose gap lands
	// the core's first real access at its interval start.
	for c := 0; c < cores; c++ {
		if first[c] < 0 {
			continue
		}
		tgt := target(first[c])
		key := uint64(m.Clock(c))
		if key >= tgt || tgt-key > math.MaxUint32 {
			return nil, fmt.Errorf("check: core %d warm-up completion %d cannot reach target %d", c, key, tgt)
		}
		if err := pad(c, uint32(tgt-key)); err != nil {
			return nil, err
		}
		if lat := uint64(m.Clock(c)) - tgt; lat >= stepSpacing/2 {
			return nil, fmt.Errorf("check: core %d positioning latency %d cycles exceeds step spacing", c, lat)
		}
	}

	for j, a := range path {
		if key := uint64(m.Clock(a.Core)); key < target(j) || key >= target(j)+stepSpacing/2 {
			return nil, fmt.Errorf("check: step %d key %d outside its interval at %d", j, key, target(j))
		}
		streams[a.Core] = append(streams[a.Core], mem.Access{Kind: a.Kind, Addr: a.Addr})
		if msg := step(m, a, 0); msg != "" {
			if j != len(path)-1 {
				return nil, fmt.Errorf("check: step %d panicked mid-path: %s", j, msg)
			}
			break // the violating final step may panic; the trace is complete
		}
		if end := uint64(m.Clock(a.Core)); end >= target(j)+stepSpacing/2 {
			return nil, fmt.Errorf("check: step %d completion %d overruns its interval", j, end)
		}
		if nj := next[j]; nj >= 0 {
			tgt := target(nj)
			key := uint64(m.Clock(a.Core))
			if key >= tgt || tgt-key > math.MaxUint32 {
				return nil, fmt.Errorf("check: step %d completion %d cannot reach target %d", j, key, tgt)
			}
			if err := pad(a.Core, uint32(tgt-key)); err != nil {
				return nil, err
			}
			if lat := uint64(m.Clock(a.Core)) - tgt; lat >= stepSpacing/2 {
				return nil, fmt.Errorf("check: step %d positioning latency %d cycles exceeds step spacing", j, lat)
			}
		}
	}
	return streams, nil
}

// Replay runs the streams through a fresh simulator carrying the same
// faults and returns the failure it produces — an error's text or a
// recovered panic (the inline checkVersion and protocol assertions
// panic). Empty means the run was clean. A counterexample trace must
// fail here; the same trace on a fault-free simulator must not.
func Replay(cfg sim.Config, f sim.Faults, streams [][]mem.Access) (failure string) {
	defer func() {
		if p := recover(); p != nil {
			failure = fmt.Sprint(p)
		}
	}()
	s, err := sim.NewWithFaults(cfg, f)
	if err != nil {
		return err.Error()
	}
	if _, err := s.Run(trace.FromSlices(streams)); err != nil {
		return err.Error()
	}
	return ""
}
