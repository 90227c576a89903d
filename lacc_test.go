package lacc_test

import (
	"strings"
	"testing"

	"lacc"
)

func smallConfig() lacc.Config {
	cfg := lacc.DefaultConfig()
	cfg.Cores = 16
	cfg.MeshWidth = 4
	cfg.MemControllers = 2
	return cfg
}

func TestRunWorkload(t *testing.T) {
	res, err := lacc.RunWorkload(smallConfig(), "tsp", 0.1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.DataAccesses == 0 || res.CompletionCycles == 0 {
		t.Fatalf("empty result: %+v", res)
	}
	if got := res.Time.Total(); got <= 0 {
		t.Fatalf("time breakdown total = %v", got)
	}
}

func TestRunWorkloadUnknownName(t *testing.T) {
	_, err := lacc.RunWorkload(smallConfig(), "not-a-benchmark", 1, 0)
	if err == nil || !strings.Contains(err.Error(), "unknown workload") {
		t.Fatalf("err = %v", err)
	}
}

func TestRunRejectsBadConfig(t *testing.T) {
	cfg := smallConfig()
	cfg.Cores = 7 // not divisible by mesh width
	if _, err := lacc.RunWorkload(cfg, "tsp", 0.1, 0); err == nil {
		t.Fatal("invalid config accepted")
	}
}

func TestCustomGenerators(t *testing.T) {
	cfg := smallConfig()
	gens := make([]lacc.GenFunc, cfg.Cores)
	for c := range gens {
		c := c
		gens[c] = func(e *lacc.Emitter) {
			base := lacc.DataBase + lacc.Addr(c)*lacc.PageBytes
			for i := 0; i < 100; i++ {
				e.Read(base + lacc.Addr(i%4)*lacc.WordBytes)
				e.Compute(2)
			}
			e.Write(base)
			e.Barrier(1)
		}
	}
	res, err := lacc.RunGenerators(cfg, gens)
	if err != nil {
		t.Fatal(err)
	}
	if res.DataAccesses != uint64(cfg.Cores)*101 {
		t.Fatalf("DataAccesses = %d, want %d", res.DataAccesses, cfg.Cores*101)
	}
	if res.Time.Sync <= 0 {
		t.Fatal("barrier produced no synchronization time")
	}
}

// TestRunGeneratorsPanicReachesCaller pins that a generator's panic (a
// workload bug) surfaces on the caller's goroutine, where recover catches
// it, instead of killing the process from a goroutine of its own.
func TestRunGeneratorsPanicReachesCaller(t *testing.T) {
	cfg := smallConfig()
	gens := make([]lacc.GenFunc, cfg.Cores)
	for c := range gens {
		gens[c] = func(e *lacc.Emitter) { e.Read(lacc.DataBase) }
	}
	gens[cfg.Cores/2] = func(e *lacc.Emitter) {
		e.Read(lacc.DataBase)
		panic("generator bug")
	}
	defer func() {
		if r := recover(); r != "generator bug" {
			t.Fatalf("recovered %v, want the generator's panic", r)
		}
	}()
	lacc.RunGenerators(cfg, gens)
	t.Fatal("RunGenerators returned despite a panicking generator")
}

func TestStreamFromAccesses(t *testing.T) {
	cfg := smallConfig()
	streams := make([]lacc.Stream, cfg.Cores)
	for c := range streams {
		streams[c] = lacc.StreamFromAccesses([]lacc.Access{
			{Kind: lacc.Read, Addr: lacc.DataBase + lacc.Addr(c)*lacc.PageBytes},
			{Kind: lacc.Write, Addr: lacc.DataBase + lacc.Addr(c)*lacc.PageBytes, Gap: 3},
		})
	}
	res, err := lacc.Run(cfg, streams)
	if err != nil {
		t.Fatal(err)
	}
	if res.DataAccesses != uint64(2*cfg.Cores) {
		t.Fatalf("DataAccesses = %d", res.DataAccesses)
	}
}

func TestWorkloadsCatalog(t *testing.T) {
	ws := lacc.Workloads()
	if len(ws) != 21 {
		t.Fatalf("catalog lists %d workloads, want 21 (Table 2)", len(ws))
	}
	if ws[0].Name != "radix" || ws[0].Suite != "SPLASH-2" {
		t.Fatalf("catalog order wrong: %+v", ws[0])
	}
	for _, w := range ws {
		if w.Label == "" || w.PaperSize == "" || w.DefaultSize == "" {
			t.Errorf("%s: incomplete metadata", w.Name)
		}
	}
}

func TestWorkloadStreams(t *testing.T) {
	streams, ok := lacc.WorkloadStreams("matmul", 4, 0.1, 0)
	if !ok || len(streams) != 4 {
		t.Fatalf("WorkloadStreams = %d streams, ok=%v", len(streams), ok)
	}
	for _, s := range streams {
		s.Close()
	}
	if _, ok := lacc.WorkloadStreams("nope", 4, 1, 0); ok {
		t.Fatal("unknown workload accepted")
	}
}

func TestStorageOverheadExported(t *testing.T) {
	r := lacc.StorageOverhead(lacc.DefaultConfig())
	if r.Limited3KB != 18 {
		t.Fatalf("Limited3 storage = %v KB, want 18", r.Limited3KB)
	}
}

func TestGeoMean(t *testing.T) {
	if got := lacc.GeoMean([]float64{1, 4}); got != 2 {
		t.Fatalf("GeoMean(1,4) = %v, want 2", got)
	}
}

func TestExperimentSmoke(t *testing.T) {
	o := lacc.ExperimentOptions{
		Cores: 16, MeshWidth: 4, Scale: 0.1, Seed: 1,
		Benchmarks: []string{"streamcluster"},
	}
	sw, err := lacc.ExperimentPCTSweep(o, []int{1, 4})
	if err != nil {
		t.Fatal(err)
	}
	f := sw.Fig11()
	if len(f.Points) != 2 {
		t.Fatalf("fig11 points = %d", len(f.Points))
	}
}
