package experiments

import "lacc/internal/sim"

// Core-benchmark definitions shared by the repo's published go test
// benchmarks (bench_test.go: BenchmarkAckwiseVsFullmap and
// BenchmarkFig8And9Sweep) and cmd/lacc-bench's benchcore regression
// harness. Both sides run these bodies, so the committed BENCH_core.json
// allocs/op gate always measures exactly the configuration the benchmarks
// publish — an edit here moves both together, and neither can drift
// silently.

// CoreBenchOptions returns the reduced machine (16 cores, 4-wide mesh,
// 0.1 scale, seed 1) every tracked core benchmark runs on.
func CoreBenchOptions(benches ...string) Options {
	return Options{Cores: 16, MeshWidth: 4, Scale: 0.1, Seed: 1, Benchmarks: benches}
}

// CoreBenchAckwise runs one iteration of the tracked ACKwise4-vs-full-map
// comparison (radix).
func CoreBenchAckwise() (*AckwiseComparisonResult, error) {
	return AckwiseComparison(CoreBenchOptions("radix"), nil)
}

// CoreBenchPCTs is the PCT list of the tracked sweep.
var CoreBenchPCTs = []int{1, 4, 8}

// CoreBenchPCTSweep runs one iteration of the tracked PCT sweep
// (streamcluster + matmul over CoreBenchPCTs).
func CoreBenchPCTSweep() (*PCTSweep, error) {
	return RunPCTSweep(CoreBenchOptions("streamcluster", "matmul"), CoreBenchPCTs)
}

// CoreBenchMultiSweepPCTs are the three overlapping PCT lists of the
// tracked multi-experiment sweep, shaped like the real lacc-bench
// invocation where Figures 8, 10 and 11 share most of their PCT points:
// the second list is a subset of the first, the third adds two points.
var CoreBenchMultiSweepPCTs = [][]int{
	{1, 2, 4, 8},
	{1, 4, 8},
	{1, 2, 4, 8, 12},
}

// CoreBenchLargeMesh256Options returns the large-mesh machine the
// LargeMesh256 benchmark runs on: 256 cores on a 16x16 mesh — four times
// the paper's Table 1 core count — at 0.1 scale, seed 1.
func CoreBenchLargeMesh256Options() Options {
	return Options{
		Cores: 256, MeshWidth: 16, Scale: 0.1, Seed: 1,
		Benchmarks: []string{"streamcluster"},
	}
}

// CoreBenchLargeMesh256 runs one iteration of the tracked large-mesh
// scenario: streamcluster at 256 cores under the adaptive protocol and the
// full-map MESI baseline. Large meshes are where per-access engine costs
// compound — 16-deep run-queue levels, broadcast trees spanning 256 tiles,
// full-map sharer vectors 256 wide — so this benchmark gates the engine's
// scalability rather than its small-machine throughput.
func CoreBenchLargeMesh256() (*ProtocolComparisonResult, error) {
	return ProtocolComparison(CoreBenchLargeMesh256Options(),
		[]sim.ProtocolKind{sim.ProtocolAdaptive, sim.ProtocolMESI})
}

// CoreBenchMultiSweep runs one iteration of the tracked multi-experiment
// sweep: three PCT sweeps over one session, exercising the whole
// work-avoidance stack — corpus reuse, cross-experiment result dedup and
// the Reset-backed simulator pool. This is the experiment-level benchmark
// the allocs/op regression gate tracks (see cmd/lacc-bench).
func CoreBenchMultiSweep() error {
	o := CoreBenchOptions("streamcluster", "matmul")
	o.Session = NewSession()
	for _, pcts := range CoreBenchMultiSweepPCTs {
		if _, err := RunPCTSweep(o, pcts); err != nil {
			return err
		}
	}
	return nil
}
