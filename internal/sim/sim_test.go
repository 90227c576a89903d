package sim_test

import (
	"errors"
	"strings"
	"testing"

	"lacc/internal/mem"
	"lacc/internal/sim"
	"lacc/internal/stats"
	"lacc/internal/trace"
	"lacc/internal/workloads"
)

// testConfig returns a small machine: `cores` tiles on a `width`-wide mesh
// with Table 1 cache geometry and the protocol defaults.
func testConfig(cores, width int) sim.Config {
	cfg := sim.Default()
	cfg.Cores = cores
	cfg.MeshWidth = width
	cfg.MemControllers = 1
	if cores >= 2 {
		cfg.MemControllers = 2
	}
	return cfg
}

// run executes streams (padded with empty streams to the core count) and
// fails the test on error.
func run(t *testing.T, cfg sim.Config, streams ...trace.Stream) *sim.Result {
	t.Helper()
	for len(streams) < cfg.Cores {
		streams = append(streams, trace.FromSlice(nil))
	}
	s, err := sim.New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	res, err := s.Run(streams)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res
}

// accs builds a slice stream from (kind, addr) pairs.
func accs(ops ...mem.Access) trace.Stream { return trace.FromSlice(ops) }

func rd(a mem.Addr) mem.Access { return mem.Access{Kind: mem.Read, Addr: a} }
func wr(a mem.Addr) mem.Access { return mem.Access{Kind: mem.Write, Addr: a} }

// base is a data address away from page 0.
const base mem.Addr = 1 << 22

func TestSingleCoreReadAfterWrite(t *testing.T) {
	res := run(t, testConfig(1, 1), accs(wr(base), rd(base), rd(base+8)))
	if res.DataAccesses != 3 {
		t.Fatalf("DataAccesses = %d, want 3", res.DataAccesses)
	}
	// The write cold-misses; both reads hit the installed M line.
	if res.L1D.Hits != 2 || res.L1D.TotalMisses() != 1 {
		t.Fatalf("hits=%d misses=%d, want 2/1", res.L1D.Hits, res.L1D.TotalMisses())
	}
	if res.L1D.Misses[0] != 1 { // cold
		t.Fatalf("miss breakdown = %v, want one cold miss", res.L1D.Misses)
	}
	if res.CompletionCycles == 0 {
		t.Fatal("zero completion time")
	}
}

func TestBaselinePCT1NeverDemotes(t *testing.T) {
	cfg := testConfig(16, 4)
	cfg.Protocol.PCT = 1
	w := workloads.MustByName("streamcluster")
	res := run(t, cfg, w.Streams(workloads.Spec{Cores: 16, Scale: 0.1, Seed: 3})...)
	if res.WordReads != 0 || res.WordWrites != 0 {
		t.Fatalf("PCT 1 produced word accesses: %d reads, %d writes", res.WordReads, res.WordWrites)
	}
	if res.Demotions != 0 || res.Promotions != 0 {
		t.Fatalf("PCT 1 produced transitions: %d demotions, %d promotions", res.Demotions, res.Promotions)
	}
}

// conflictAddrs returns n addresses mapping to the same L1-D set within one
// page, for the Table 1 geometry (32 KB, 4-way: 128 sets, 8 KB stride is
// too large for a page, so we use distinct pages — one address per page is
// still one line per set way).
func conflictAddrs(n int) []mem.Addr {
	// 128 sets x 64 B = 8192 B stride keeps the set index constant.
	out := make([]mem.Addr, n)
	for i := range out {
		out[i] = base + mem.Addr(i)*128*64
	}
	return out
}

func TestEvictionDemotesAndConvertsToWordMisses(t *testing.T) {
	cfg := testConfig(1, 1)
	cfg.Protocol.PCT = 4
	addrs := conflictAddrs(6) // 6 lines into a 4-way set: evictions guaranteed

	// Three passes over the conflict set: pass 1 installs (cold) and evicts
	// with utilization 1, demoting every line; pass 2 misses again
	// (capacity) and is serviced remotely; pass 3 stays remote (word).
	var ops []mem.Access
	for pass := 0; pass < 3; pass++ {
		for _, a := range addrs {
			ops = append(ops, rd(a))
		}
	}
	res := run(t, cfg, accs(ops...))
	if res.Demotions == 0 {
		t.Fatal("no demotions after single-use evictions")
	}
	if res.WordReads == 0 {
		t.Fatal("no remote word reads after demotion")
	}
	if res.L1D.Misses[4] == 0 { // word misses
		t.Fatalf("miss breakdown %v has no word misses", res.L1D.Misses)
	}
	if res.EvictionUtil.Total() == 0 {
		t.Fatal("eviction utilization histogram empty")
	}
	if res.EvictionUtil.Buckets[0] == 0 {
		t.Fatalf("eviction histogram %v: expected utilization-1 entries", res.EvictionUtil.Buckets)
	}
}

func TestHighUtilizationStaysPrivate(t *testing.T) {
	cfg := testConfig(1, 1)
	cfg.Protocol.PCT = 4
	addrs := conflictAddrs(6)
	// Each line is read 8 times before moving on: utilization 8 >= PCT, so
	// evictions classify the core private and no word misses appear.
	var ops []mem.Access
	for pass := 0; pass < 3; pass++ {
		for _, a := range addrs {
			for k := 0; k < 8; k++ {
				ops = append(ops, rd(a))
			}
		}
	}
	res := run(t, cfg, accs(ops...))
	if res.WordReads != 0 {
		t.Fatalf("well-utilized lines were serviced remotely: %d word reads", res.WordReads)
	}
	if res.Demotions != 0 {
		t.Fatalf("well-utilized lines demoted %d times", res.Demotions)
	}
}

func TestWriteInvalidatesAllSharers(t *testing.T) {
	cfg := testConfig(4, 2)
	line := base
	// Cores 0..2 read the line; core 3 writes it afterwards (gaps order the
	// accesses), invalidating three private sharers.
	streams := []trace.Stream{
		accs(rd(line)),
		accs(mem.Access{Kind: mem.Read, Addr: line, Gap: 100}),
		accs(mem.Access{Kind: mem.Read, Addr: line, Gap: 200}),
		accs(mem.Access{Kind: mem.Write, Addr: line, Gap: 10000}),
	}
	res := run(t, cfg, streams...)
	if res.Invalidations != 3 {
		t.Fatalf("Invalidations = %d, want 3", res.Invalidations)
	}
	if res.InvalidationUtil.Total() != 3 {
		t.Fatalf("invalidation histogram total = %d, want 3", res.InvalidationUtil.Total())
	}
}

func TestSharingMissClassification(t *testing.T) {
	cfg := testConfig(2, 2)
	line := base
	streams := []trace.Stream{
		// Core 0: read, then (after the invalidation) read again.
		accs(rd(line), mem.Access{Kind: mem.Read, Addr: line, Gap: 20000}),
		// Core 1: write in between.
		accs(mem.Access{Kind: mem.Write, Addr: line, Gap: 5000}),
	}
	res := run(t, cfg, streams...)
	if res.L1D.Misses[3] != 1 { // sharing
		t.Fatalf("miss breakdown %v, want exactly one sharing miss", res.L1D.Misses)
	}
}

func TestUpgradeMiss(t *testing.T) {
	cfg := testConfig(2, 2)
	line := base + 128
	streams := []trace.Stream{
		// Core 0 first touches the page, core 1's touch reclassifies it to
		// shared (invalidating core 0's first line via the page move). Both
		// cores then read `line` (Shared), and core 0's write upgrades its S
		// copy, invalidating the other sharer.
		accs(rd(base),
			mem.Access{Kind: mem.Read, Addr: line, Gap: 10000},
			mem.Access{Kind: mem.Write, Addr: line, Gap: 20000}),
		accs(mem.Access{Kind: mem.Read, Addr: base + 64, Gap: 5000},
			mem.Access{Kind: mem.Read, Addr: line, Gap: 10000}),
	}
	res := run(t, cfg, streams...)
	if res.L1D.Misses[2] != 1 { // upgrade
		t.Fatalf("miss breakdown %v, want exactly one upgrade miss", res.L1D.Misses)
	}
	// Two invalidations: core 0's first line during the page move, and core
	// 1's S copy on the upgrade.
	if res.Invalidations != 2 {
		t.Fatalf("Invalidations = %d, want 2", res.Invalidations)
	}
}

func TestAckwiseOverflowBroadcasts(t *testing.T) {
	cfg := testConfig(8, 4)
	cfg.AckwisePointers = 2
	line := base
	streams := make([]trace.Stream, 8)
	for c := 0; c < 7; c++ {
		streams[c] = accs(mem.Access{Kind: mem.Read, Addr: line, Gap: uint32(100 * (c + 1))})
	}
	streams[7] = accs(mem.Access{Kind: mem.Write, Addr: line, Gap: 50000})
	res := run(t, cfg, streams...)
	if res.BroadcastInvalidations == 0 {
		t.Fatal("7 sharers on 2 pointers did not broadcast")
	}
	if res.Invalidations != 7 {
		t.Fatalf("Invalidations = %d, want 7 acknowledgements", res.Invalidations)
	}
}

func TestFullMapMatchesAckwise(t *testing.T) {
	spec := workloads.Spec{Cores: 16, Scale: 0.1, Seed: 5}
	w := workloads.MustByName("dijkstra-ss")
	limited := testConfig(16, 4)
	limited.AckwisePointers = 4
	fullmap := testConfig(16, 4)
	fullmap.AckwisePointers = 16
	a := run(t, limited, w.Streams(spec)...)
	b := run(t, fullmap, w.Streams(spec)...)
	ra := float64(a.CompletionCycles)
	rb := float64(b.CompletionCycles)
	if diff := (ra - rb) / rb; diff < -0.05 || diff > 0.05 {
		t.Fatalf("ACKwise4 vs full-map completion differs by %.1f%% (paper: ~1%%)", 100*diff)
	}
}

func TestOneWayNeverPromotes(t *testing.T) {
	cfg := testConfig(16, 4)
	cfg.Protocol.OneWay = true
	w := workloads.MustByName("streamcluster")
	res := run(t, cfg, w.Streams(workloads.Spec{Cores: 16, Scale: 0.1, Seed: 3})...)
	if res.Promotions != 0 {
		t.Fatalf("Adapt1-way promoted %d times", res.Promotions)
	}
	if res.Demotions == 0 {
		t.Fatal("Adapt1-way never demoted (test workload too small?)")
	}
}

func TestTimestampModeRuns(t *testing.T) {
	cfg := testConfig(16, 4)
	cfg.Protocol.UseTimestamp = true
	w := workloads.MustByName("blackscholes")
	res := run(t, cfg, w.Streams(workloads.Spec{Cores: 16, Scale: 0.1, Seed: 3})...)
	if res.WordReads == 0 {
		t.Fatal("timestamp mode produced no word reads on a streaming workload")
	}
}

func TestDeterministicResults(t *testing.T) {
	cfg := testConfig(16, 4)
	w := workloads.MustByName("radix")
	spec := workloads.Spec{Cores: 16, Scale: 0.1, Seed: 9}
	a := run(t, cfg, w.Streams(spec)...)
	b := run(t, cfg, w.Streams(spec)...)
	if a.CompletionCycles != b.CompletionCycles {
		t.Fatalf("completion differs across identical runs: %d vs %d",
			a.CompletionCycles, b.CompletionCycles)
	}
	if a.Energy != b.Energy {
		t.Fatalf("energy differs across identical runs: %+v vs %+v", a.Energy, b.Energy)
	}
	if a.LinkFlits != b.LinkFlits || a.DRAMReads != b.DRAMReads {
		t.Fatal("network/DRAM activity differs across identical runs")
	}
}

func TestBarrierAlignsCores(t *testing.T) {
	cfg := testConfig(2, 2)
	streams := []trace.Stream{
		accs(mem.Access{Kind: mem.Barrier, Addr: 1}, rd(base)),
		accs(mem.Access{Kind: mem.Barrier, Addr: 1, Gap: 5000}, rd(base+mem.PageBytes)),
	}
	res := run(t, cfg, streams...)
	if res.Time.Sync <= 0 {
		t.Fatalf("Sync = %v, want > 0 (core 0 waited)", res.Time.Sync)
	}
	// Core 0 waited about 5000 cycles plus the barrier release latency.
	if res.Time.Sync < 5000 {
		t.Fatalf("Sync = %v, want >= 5000", res.Time.Sync)
	}
}

func TestBarrierMismatchPanics(t *testing.T) {
	cfg := testConfig(2, 2)
	s, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("mismatched barrier ids did not panic")
		}
		if !strings.Contains(r.(string), "barrier mismatch") {
			t.Fatalf("unexpected panic: %v", r)
		}
	}()
	s.Run([]trace.Stream{
		accs(mem.Access{Kind: mem.Barrier, Addr: 1}),
		accs(mem.Access{Kind: mem.Barrier, Addr: 2, Gap: 100}),
	})
}

func TestLeakedLockFailsRun(t *testing.T) {
	cfg := testConfig(1, 1)
	s, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.Run([]trace.Stream{accs(mem.Access{Kind: mem.Lock, Addr: 7}, rd(base))})
	if err == nil || !strings.Contains(err.Error(), "deadlock") && !strings.Contains(err.Error(), "leaked") {
		t.Fatalf("leaked lock not reported, err = %v", err)
	}
}

func TestLockSerializesAndIsFIFO(t *testing.T) {
	cfg := testConfig(4, 2)
	streams := make([]trace.Stream, 4)
	for c := 0; c < 4; c++ {
		streams[c] = accs(
			mem.Access{Kind: mem.Lock, Addr: 9, Gap: uint32(10 * c)},
			rd(base+mem.Addr(c)*mem.PageBytes),
			mem.Access{Kind: mem.Unlock, Addr: 9},
		)
	}
	res := run(t, cfg, streams...)
	if res.Time.Sync <= 0 {
		t.Fatal("lock contention produced no synchronization time")
	}
}

func TestPageReclassification(t *testing.T) {
	cfg := testConfig(2, 2)
	streams := []trace.Stream{
		accs(rd(base)),
		accs(mem.Access{Kind: mem.Read, Addr: base + 64, Gap: 5000}),
	}
	res := run(t, cfg, streams...)
	if res.Reclassifications != 1 {
		t.Fatalf("Reclassifications = %d, want 1", res.Reclassifications)
	}
	if res.SharedPages != 1 {
		t.Fatalf("SharedPages = %d, want 1", res.SharedPages)
	}
}

func TestL2EvictionBackInvalidates(t *testing.T) {
	cfg := testConfig(1, 1)
	cfg.L2SizeKB = 4 // 64 lines: tiny L2 forces slice evictions
	cfg.L1DSizeKB = 1
	var ops []mem.Access
	// Touch many distinct pages so the single home slice overflows; the
	// inclusive hierarchy must back-invalidate without tripping the checker.
	for i := 0; i < 512; i++ {
		ops = append(ops, wr(base+mem.Addr(i)*mem.PageBytes))
	}
	for i := 0; i < 512; i++ {
		ops = append(ops, rd(base+mem.Addr(i)*mem.PageBytes))
	}
	res := run(t, cfg, accs(ops...))
	if res.DRAMWrites == 0 {
		t.Fatal("dirty L2 evictions never wrote back to DRAM")
	}
}

func TestInstructionStreamAccounted(t *testing.T) {
	cfg := testConfig(1, 1)
	var ops []mem.Access
	for i := 0; i < 200; i++ {
		ops = append(ops, mem.Access{Kind: mem.Read, Addr: base + mem.Addr(8*i), Gap: 4})
	}
	res := run(t, cfg, accs(ops...))
	if res.L1IHits+res.L1IMisses == 0 {
		t.Fatal("no instruction fetches simulated")
	}
	if res.Meter.L1IAccesses == 0 {
		t.Fatal("no L1-I energy accounted")
	}
	if res.L1IMisses == 0 {
		t.Fatal("instruction working set never missed (cold misses expected)")
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []func(*sim.Config){
		func(c *sim.Config) { c.Cores = 0 },
		func(c *sim.Config) { c.Cores = 10; c.MeshWidth = 4 },
		func(c *sim.Config) { c.L1DSizeKB = 0 },
		func(c *sim.Config) { c.L2Ways = 0 },
		func(c *sim.Config) { c.AckwisePointers = 0 },
		func(c *sim.Config) { c.MemControllers = 0 },
		func(c *sim.Config) { c.MemControllers = 128 },
		func(c *sim.Config) { c.DRAMBytesPerCycle = 0 },
		func(c *sim.Config) { c.CodeLines = 0 },
		func(c *sim.Config) { c.Protocol.PCT = 0 },
		func(c *sim.Config) { c.Protocol.RATMax = 1 },
	}
	for i, mutate := range bad {
		cfg := sim.Default()
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
	if err := sim.Default().Validate(); err != nil {
		t.Errorf("default config rejected: %v", err)
	}
}

// TestConfigLimits is the table-driven boundary test for the packed-width
// validation: core counts must fit the int16 tile ids used by directory
// owner/sharer state (and the int32 run-queue ids), and unsupported
// feature combinations reject through the typed FeatureError path.
func TestConfigLimits(t *testing.T) {
	valid := func(cores, width, mcs int) sim.Config {
		cfg := sim.Default()
		cfg.Cores, cfg.MeshWidth, cfg.MemControllers = cores, width, mcs
		return cfg
	}
	tests := []struct {
		name      string
		mut       func(*sim.Config)
		wantErr   bool
		wantLimit bool
	}{
		// 32767 = 7 * 31 * 151, so MeshWidth 7 satisfies divisibility at the
		// exact MaxCores boundary; one more core overflows the int16 tile
		// ids packed through the directory and cache lines.
		{"max-cores-ok", func(c *sim.Config) { *c = valid(1<<15-1, 7, 7) }, false, false},
		{"cores-overflow", func(c *sim.Config) { *c = valid(1<<15, 8, 8) }, true, true},
		// Unsupported feature combos reject through the typed FeatureError
		// path (not LimitError): victim replication is adaptive-only.
		{"victim-replication-dls", func(c *sim.Config) {
			c.ProtocolKind = sim.ProtocolDLS
			c.VictimReplication = true
		}, true, false},
		{"victim-replication-neat", func(c *sim.Config) {
			c.ProtocolKind = sim.ProtocolNeat
			c.VictimReplication = true
		}, true, false},
		{"victim-replication-hybrid", func(c *sim.Config) {
			c.ProtocolKind = sim.ProtocolHybrid
			c.VictimReplication = true
		}, true, false},
	}
	for _, tc := range tests {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			cfg := sim.Default()
			tc.mut(&cfg)
			err := cfg.Validate()
			if tc.wantErr && err == nil {
				t.Fatal("Validate accepted an out-of-range config")
			}
			if !tc.wantErr && err != nil {
				t.Fatalf("Validate rejected a valid config: %v", err)
			}
			var le *sim.LimitError
			if got := errors.As(err, &le); got != tc.wantLimit {
				t.Fatalf("LimitError presence = %v, want %v (err: %v)", got, tc.wantLimit, err)
			}
			if le != nil && le.Error() == "" {
				t.Fatal("empty LimitError message")
			}
		})
	}
}

func TestStreamCountMismatch(t *testing.T) {
	s, err := sim.New(testConfig(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run([]trace.Stream{accs(rd(base))}); err == nil {
		t.Fatal("stream/core count mismatch accepted")
	}
}

func TestPerCoreTimeScaling(t *testing.T) {
	res := run(t, testConfig(4, 2),
		accs(mem.Access{Kind: mem.Read, Addr: base, Gap: 100}),
		accs(mem.Access{Kind: mem.Read, Addr: base + mem.PageBytes, Gap: 100}),
		accs(mem.Access{Kind: mem.Read, Addr: base + 2*mem.PageBytes, Gap: 100}),
		accs(mem.Access{Kind: mem.Read, Addr: base + 3*mem.PageBytes, Gap: 100}),
	)
	per := res.PerCoreTime(4)
	if per.Compute != res.Time.Compute/4 {
		t.Fatalf("PerCoreTime Compute = %v, want %v", per.Compute, res.Time.Compute/4)
	}
	if res.L1DMissRate() != 100 {
		t.Fatalf("miss rate = %v, want 100 (all cold)", res.L1DMissRate())
	}
}

// TestLimitedClassifierStaleCopyRegression reproduces the scenario where the
// Limited-k classifier loses a live private sharer's entry and later
// majority-votes the core remote while its stale S copy is still resident:
// the remote word write must invalidate that copy. Before the fix, the
// golden-store checker caught a stale read on this canneal configuration.
func TestLimitedClassifierStaleCopyRegression(t *testing.T) {
	cfg := testConfig(16, 4)
	cfg.ClassifierK = 1
	cfg.Protocol.PCT = 4
	w := workloads.MustByName("canneal")
	res := run(t, cfg, w.Streams(workloads.Spec{Cores: 16, Scale: 0.15, Seed: 1})...)
	if res.WordWrites == 0 {
		t.Fatal("regression scenario produced no remote word writes")
	}
}

// TestAdaptiveBeatsBaseline is the headline shape check at test scale: for
// protocol-friendly workloads, PCT 4 must improve both energy and
// completion time over the PCT 1 baseline.
func TestAdaptiveBeatsBaseline(t *testing.T) {
	for _, name := range []string{"streamcluster", "blackscholes", "matmul", "dijkstra-ss"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			w := workloads.MustByName(name)
			spec := workloads.Spec{Cores: 16, Scale: 0.25, Seed: 1}
			baseCfg := testConfig(16, 4)
			baseCfg.Protocol.PCT = 1
			adaptCfg := testConfig(16, 4)
			adaptCfg.Protocol.PCT = 4
			baseRes := run(t, baseCfg, w.Streams(spec)...)
			adaptRes := run(t, adaptCfg, w.Streams(spec)...)
			if adaptRes.Energy.Total() >= baseRes.Energy.Total() {
				t.Errorf("energy at PCT 4 (%.0f) not below PCT 1 (%.0f)",
					adaptRes.Energy.Total(), baseRes.Energy.Total())
			}
			if adaptRes.CompletionCycles > baseRes.CompletionCycles {
				t.Errorf("completion at PCT 4 (%d) above PCT 1 (%d)",
					adaptRes.CompletionCycles, baseRes.CompletionCycles)
			}
		})
	}
}

// TestAllWorkloadsCompleteUnderChecker runs every registered workload at the
// default protocol with the golden-store checker enabled — the analog of the
// paper's "21 benchmarks run to completion" functional correctness argument.
func TestAllWorkloadsCompleteUnderChecker(t *testing.T) {
	if testing.Short() {
		t.Skip("full workload sweep skipped in -short mode")
	}
	for _, w := range workloads.All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			cfg := testConfig(16, 4)
			res := run(t, cfg, w.Streams(workloads.Spec{Cores: 16, Scale: 0.1, Seed: 2})...)
			if res.DataAccesses == 0 {
				t.Fatal("no data accesses simulated")
			}
			if res.Energy.Total() <= 0 {
				t.Fatal("no energy accounted")
			}
		})
	}
}

func TestPerCoreStats(t *testing.T) {
	cfg := testConfig(4, 2)
	streams := []trace.Stream{
		accs(rd(base)),
		accs(mem.Access{Kind: mem.Read, Addr: base + mem.PageBytes, Gap: 1000}),
		accs(rd(base + 2*mem.PageBytes)),
		accs(rd(base + 3*mem.PageBytes)),
	}
	res := run(t, cfg, streams...)
	if len(res.PerCore) != 4 {
		t.Fatalf("PerCore has %d entries, want 4", len(res.PerCore))
	}
	var sum stats.TimeBreakdown
	var finMax mem.Cycle
	for i := range res.PerCore {
		sum.Add(res.PerCore[i].Time)
		if res.PerCore[i].Finish > finMax {
			finMax = res.PerCore[i].Finish
		}
	}
	if sum != res.Time {
		t.Fatalf("per-core breakdowns (%+v) do not sum to aggregate (%+v)", sum, res.Time)
	}
	if finMax != res.CompletionCycles {
		t.Fatalf("max finish %d != completion %d", finMax, res.CompletionCycles)
	}
	if imb := res.Imbalance(); imb < 1 {
		t.Fatalf("Imbalance() = %v, want >= 1", imb)
	}
	// Core 1's 1000-cycle gap makes the run imbalanced.
	if imb := res.Imbalance(); imb < 1.2 {
		t.Fatalf("Imbalance() = %v, want > 1.2 for the skewed trace", imb)
	}
}

// closeCountingStream records Close calls; the stream-leak regression test
// below uses it to observe Run's error paths.
type closeCountingStream struct {
	closed int
}

func (s *closeCountingStream) Next() (mem.Access, bool) { return mem.Access{}, false }
func (s *closeCountingStream) Close()                   { s.closed++ }

// TestRunClosesStreamsOnArityError pins the stream-ownership contract: Run
// closes the streams it was handed on every exit path, including the
// stream-count validation error. Before the fix, the arity check returned
// ahead of the deferred close, leaking the streams (and, for spilled
// corpora, their file-descriptor refcounts).
func TestRunClosesStreamsOnArityError(t *testing.T) {
	cfg := sim.Default()
	cfg.Cores = 4
	cfg.MeshWidth = 2
	cfg.MemControllers = 2
	s, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	streams := []trace.Stream{&closeCountingStream{}, &closeCountingStream{}}
	if _, err := s.Run(streams); err == nil {
		t.Fatal("Run accepted 2 streams for 4 cores")
	}
	for i, st := range streams {
		if st.(*closeCountingStream).closed == 0 {
			t.Errorf("stream %d leaked: never closed on the arity-error path", i)
		}
	}
}

// TestEveryMeshGeometryRuns: every geometry Config.Validate accepts up to
// 16 cores — odd widths and heights included, whose last instruction
// cluster is clipped to the mesh — runs a short workload to completion
// under the value checker.
func TestEveryMeshGeometryRuns(t *testing.T) {
	w, ok := workloads.ByName("matmul")
	if !ok {
		t.Fatal("matmul is not registered")
	}
	for cores := 1; cores <= 16; cores++ {
		for width := 1; width <= cores; width++ {
			if cores%width != 0 {
				continue
			}
			res := run(t, testConfig(cores, width), w.Streams(workloads.Spec{Cores: cores, Scale: 0.02, Seed: 1})...)
			if res.DataAccesses == 0 {
				t.Fatalf("%d cores, width %d: no data accesses simulated", cores, width)
			}
		}
	}
}
