package main

import (
	"encoding/json"
	"fmt"
	"os"
	"testing"

	"lacc/internal/experiments"
)

// The benchcore experiment is the benchmark-regression harness: it runs
// the tracked core benchmarks (the same workload/configuration pairs as
// BenchmarkAckwiseVsFullmap, BenchmarkFig8And9Sweep and
// BenchmarkMultiExperimentSweep in bench_test.go) through
// testing.Benchmark and reports ns/op, allocs/op and B/op. MultiSweep is
// the experiment-level number: three overlapping PCT sweeps in one
// session, covering the corpus cache, cross-experiment dedup and the
// simulator pool.
//
//	lacc-bench -json benchcore > BENCH_core.json     # refresh the baseline
//	lacc-bench -check-bench BENCH_core.json benchcore # CI regression gate
//
// The check mode fails (exit 1) when allocs/op regresses more than 20%
// against the committed baseline, or when ns/op regresses beyond its
// tolerance band. The two gates have very different widths: allocs/op is
// deterministic for a given code path and tolerates only jitter, while
// ns/op varies with the host — CI runners differ from the machines
// baselines were recorded on — so its band is wide (2.5x) and only
// catches order-of-magnitude blowups such as an accidentally quadratic
// loop or a lost fast path, not percent-level drift.

// CoreBenchResult is one core benchmark's measurement, as committed in
// BENCH_core.json.
type CoreBenchResult struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
}

// allocRegressionLimit is the relative allocs/op growth tolerated before
// the check fails; allocSlack absorbs fixed jitter on tiny counts.
// nsRegressionLimit is the ns/op tolerance band: wide, because wall time
// is host-dependent (see the package comment).
const (
	allocRegressionLimit = 1.20
	allocSlack           = 8
	nsRegressionLimit    = 2.5
)

// coreBenchmarks are the tracked benchmark bodies, shared with
// bench_test.go through internal/experiments (CoreBenchAckwise and
// CoreBenchPCTSweep) so this gate and the published benchmarks cannot
// measure different configurations.
var coreBenchmarks = []struct {
	name string
	fn   func(b *testing.B)
}{
	{"AckwiseVsFullmap", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := experiments.CoreBenchAckwise(); err != nil {
				b.Fatal(err)
			}
		}
	}},
	{"PCTSweep", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := experiments.CoreBenchPCTSweep(); err != nil {
				b.Fatal(err)
			}
		}
	}},
	{"MultiSweep", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := experiments.CoreBenchMultiSweep(); err != nil {
				b.Fatal(err)
			}
		}
	}},
	{"LargeMesh256", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := experiments.CoreBenchLargeMesh256(); err != nil {
				b.Fatal(err)
			}
		}
	}},
}

// runBenchCore measures the core benchmarks, emits results (JSON or a
// table) and, when baselinePath is set, enforces the allocs/op gate.
func runBenchCore(jsonOut bool, baselinePath string) error {
	results := make([]CoreBenchResult, 0, len(coreBenchmarks))
	for _, cb := range coreBenchmarks {
		fn := cb.fn
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			fn(b)
		})
		results = append(results, CoreBenchResult{
			Name:        cb.name,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: float64(r.AllocsPerOp()),
			BytesPerOp:  float64(r.AllocedBytesPerOp()),
		})
	}

	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(results); err != nil {
			return err
		}
	} else {
		for _, r := range results {
			fmt.Printf("%-20s %14.0f ns/op %12.0f allocs/op %14.0f B/op\n",
				r.Name, r.NsPerOp, r.AllocsPerOp, r.BytesPerOp)
		}
	}

	if baselinePath == "" {
		return nil
	}
	return checkAgainstBaseline(results, baselinePath)
}

// checkAgainstBaseline compares allocs/op against the committed baseline.
// The comparison table goes to stderr so `-json ... > file` redirections
// stay valid JSON.
func checkAgainstBaseline(results []CoreBenchResult, path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("benchcore baseline: %w", err)
	}
	var baseline []CoreBenchResult
	if err := json.Unmarshal(data, &baseline); err != nil {
		return fmt.Errorf("benchcore baseline %s: %w", path, err)
	}
	base := make(map[string]CoreBenchResult, len(baseline))
	for _, b := range baseline {
		base[b.Name] = b
	}
	measured := make(map[string]bool, len(results))
	failed := false
	for _, r := range results {
		measured[r.Name] = true
		b, ok := base[r.Name]
		if !ok {
			fmt.Fprintf(os.Stderr, "benchcore: %s missing from baseline %s (refresh it)\n", r.Name, path)
			failed = true
			continue
		}
		limit := b.AllocsPerOp*allocRegressionLimit + allocSlack
		status := "ok"
		if r.AllocsPerOp > limit {
			status = "REGRESSION"
			failed = true
		}
		nsLimit := b.NsPerOp * nsRegressionLimit
		nsStatus := "ok"
		if r.NsPerOp > nsLimit {
			nsStatus = "REGRESSION"
			failed = true
		}
		fmt.Fprintf(os.Stderr, "%-20s allocs/op %10.0f -> %10.0f (limit %.0f) %s | ns/op %12.0f -> %12.0f (limit %.0f) %s\n",
			r.Name, b.AllocsPerOp, r.AllocsPerOp, limit, status,
			b.NsPerOp, r.NsPerOp, nsLimit, nsStatus)
	}
	// The gate must stay bidirectional: a benchmark present in the
	// baseline but no longer measured means the gate silently narrowed.
	for _, b := range baseline {
		if !measured[b.Name] {
			fmt.Fprintf(os.Stderr, "benchcore: baseline entry %s is no longer measured (refresh %s)\n", b.Name, path)
			failed = true
		}
	}
	if failed {
		return fmt.Errorf("benchcore: allocs/op (>%.0f%%) or ns/op (>%.1fx) regressed against %s (refresh with `lacc-bench -json benchcore > %s` if intentional)",
			(allocRegressionLimit-1)*100, nsRegressionLimit, path, path)
	}
	return nil
}
