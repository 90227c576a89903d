// Benchmarks: one testing.B target per table and figure of the paper (at a
// reduced 16-core/0.1-scale configuration so `go test -bench=.` finishes in
// minutes; the full-size runs live in cmd/lacc-bench), plus micro-benchmarks
// of the simulation substrates.
package lacc_test

import (
	"io"
	"testing"

	"lacc"
	"lacc/internal/cache"
	"lacc/internal/coherence"
	"lacc/internal/core"
	"lacc/internal/dram"
	"lacc/internal/experiments"
	"lacc/internal/mem"
	"lacc/internal/network"
	"lacc/internal/sim"
	"lacc/internal/workloads"
)

// benchOptions is the reduced machine used by the figure benchmarks.
func benchOptions(benches ...string) experiments.Options {
	return experiments.Options{
		Cores: 16, MeshWidth: 4, Scale: 0.1, Seed: 1, Benchmarks: benches,
	}
}

func BenchmarkTable1Render(b *testing.B) {
	cfg := sim.Default()
	for i := 0; i < b.N; i++ {
		if err := experiments.RenderTable1(cfg, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable2Render(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := experiments.RenderTable2(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStorageOverhead(b *testing.B) {
	cfg := sim.Default()
	for i := 0; i < b.N; i++ {
		r := experiments.Storage(cfg)
		if r.Limited3KB != 18 {
			b.Fatal("storage arithmetic drifted")
		}
	}
}

func BenchmarkFig1And2(b *testing.B) {
	o := benchOptions("streamcluster", "blackscholes")
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig1And2(o); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig8And9Sweep(b *testing.B) {
	b.ReportAllocs() // sweep body shared with the benchcore regression harness
	for i := 0; i < b.N; i++ {
		sw, err := experiments.CoreBenchPCTSweep()
		if err != nil {
			b.Fatal(err)
		}
		if err := sw.RenderFig8(io.Discard); err != nil {
			b.Fatal(err)
		}
		if err := sw.RenderFig9(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig10MissBreakdown(b *testing.B) {
	o := benchOptions("blackscholes", "canneal")
	for i := 0; i < b.N; i++ {
		sw, err := experiments.RunPCTSweep(o, []int{1, 4})
		if err != nil {
			b.Fatal(err)
		}
		if err := sw.RenderFig10(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig11Geomean(b *testing.B) {
	o := benchOptions("streamcluster", "matmul")
	for i := 0; i < b.N; i++ {
		sw, err := experiments.RunPCTSweep(o, []int{1, 2, 4, 8})
		if err != nil {
			b.Fatal(err)
		}
		if f := sw.Fig11(); len(f.Points) != 4 {
			b.Fatal("short sweep")
		}
	}
}

func BenchmarkFig12RATSensitivity(b *testing.B) {
	o := benchOptions("streamcluster")
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig12(o); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig13LimitedK(b *testing.B) {
	o := benchOptions("streamcluster")
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig13(o); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig14OneWay(b *testing.B) {
	o := benchOptions("bodytrack", "dijkstra-ss")
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig14(o); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAckwiseVsFullmap(b *testing.B) {
	b.ReportAllocs() // body shared with the benchcore regression harness
	for i := 0; i < b.N; i++ {
		if _, err := experiments.CoreBenchAckwise(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMultiExperimentSweep measures the experiment scheduler end to
// end: three overlapping PCT sweeps in one session, the shape of a real
// multi-figure lacc-bench invocation. Corpus caching, cross-experiment
// result dedup and simulator reuse all land here, so this is the number
// the sweep-level regression gate tracks.
func BenchmarkMultiExperimentSweep(b *testing.B) {
	b.ReportAllocs() // body shared with the benchcore regression harness
	for i := 0; i < b.N; i++ {
		if err := experiments.CoreBenchMultiSweep(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLargeMesh256 measures the tracked large-mesh scenario:
// streamcluster at 256 cores (16x16 mesh, 4x the paper's core count)
// under the adaptive protocol and the full-map MESI baseline. The body is
// shared with the benchcore regression harness through
// experiments.CoreBenchLargeMesh256.
func BenchmarkLargeMesh256(b *testing.B) {
	b.ReportAllocs() // body shared with the benchcore regression harness
	for i := 0; i < b.N; i++ {
		if _, err := experiments.CoreBenchLargeMesh256(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulatorThroughput measures raw simulation speed (accesses per
// second) on one representative run.
func BenchmarkSimulatorThroughput(b *testing.B) {
	b.ReportAllocs()
	cfg := lacc.DefaultConfig()
	cfg.Cores = 16
	cfg.MeshWidth = 4
	cfg.MemControllers = 2
	w := workloads.MustByName("streamcluster")
	spec := workloads.Spec{Cores: 16, Scale: 0.25, Seed: 1}
	var accesses uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := lacc.Run(cfg, w.Streams(spec))
		if err != nil {
			b.Fatal(err)
		}
		accesses += res.DataAccesses
	}
	b.ReportMetric(float64(accesses)/float64(b.N), "accesses/run")
}

// --- substrate micro-benchmarks ---

func BenchmarkMeshUnicast(b *testing.B) {
	m := network.New(network.Config{Width: 8, Height: 8, HopLatency: 2})
	for i := 0; i < b.N; i++ {
		m.Unicast(0, 63, 9, mem.Cycle(i))
	}
}

func BenchmarkMeshBroadcast(b *testing.B) {
	m := network.New(network.Config{Width: 8, Height: 8, HopLatency: 2})
	for i := 0; i < b.N; i++ {
		m.Broadcast(27, 1, mem.Cycle(i))
	}
}

func BenchmarkCacheInsertEvict(b *testing.B) {
	c := cache.New(32*1024, 4)
	for i := 0; i < b.N; i++ {
		a := mem.Addr(i) * mem.LineBytes
		if l := c.Probe(a); l == nil {
			c.Insert(a)
		}
	}
}

func BenchmarkCacheProbeHit(b *testing.B) {
	c := cache.New(32*1024, 4)
	c.Insert(0)
	for i := 0; i < b.N; i++ {
		if c.Probe(0) == nil {
			b.Fatal("lost the line")
		}
	}
}

func BenchmarkLimited3Classifier(b *testing.B) {
	cls := core.NewClassifier(64, 3)
	p := core.DefaultParams()
	for i := 0; i < b.N; i++ {
		st := core.Lookup(cls, i%64)
		core.RemoteAccess(p, st, false, false)
	}
}

func BenchmarkCompleteClassifier(b *testing.B) {
	cls := core.NewClassifier(64, 0)
	p := core.DefaultParams()
	for i := 0; i < b.N; i++ {
		st := core.Lookup(cls, i%64)
		core.Classify(p, st, uint32(i%8), i%2 == 0)
	}
}

func BenchmarkSharerSetAddRemove(b *testing.B) {
	s := coherence.NewSharerSet(4)
	for i := 0; i < b.N; i++ {
		id := i % 16
		if !s.Contains(id) {
			s.Add(id)
		}
		s.Remove(id)
	}
}

func BenchmarkDRAMService(b *testing.B) {
	m := dram.New(dram.Config{
		Controllers: 8, LatencyCycles: 100, BytesPerCycle: 5,
		Tiles: dram.DefaultTiles(8, 8, 8),
	})
	for i := 0; i < b.N; i++ {
		m.Read(i%8, mem.LineBytes, mem.Cycle(i))
	}
}

func BenchmarkTraceGeneration(b *testing.B) {
	w := workloads.MustByName("canneal")
	spec := workloads.Spec{Cores: 4, Scale: 0.1, Seed: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, s := range w.Streams(spec) {
			for {
				if _, ok := s.Next(); !ok {
					break
				}
			}
			s.Close()
		}
	}
}
