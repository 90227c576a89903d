package experiments

import (
	"fmt"
	"io"

	"lacc/internal/report"
	"lacc/internal/sim"
)

// StorageScalingResult evaluates the Section 3.6 storage argument across
// core counts: the Complete classifier's overhead explodes with the number
// of cores ("over 10x at 1024 cores") while Limited3 stays constant.
type StorageScalingResult struct {
	CoreCounts []int
	// Per core count, KB per core and overhead (relative to the baseline
	// ACKwise4 system) for both classifiers.
	Limited3KB       map[int]float64
	CompleteKB       map[int]float64
	Limited3Overhead map[int]float64 // percent
	CompleteOverhead map[int]float64 // percent
}

// StorageScaling computes classifier storage for each core count using the
// Table 1 cache geometry.
func StorageScaling(coreCounts []int) *StorageScalingResult {
	if len(coreCounts) == 0 {
		coreCounts = []int{16, 64, 256, 1024}
	}
	out := &StorageScalingResult{
		CoreCounts:       coreCounts,
		Limited3KB:       map[int]float64{},
		CompleteKB:       map[int]float64{},
		Limited3Overhead: map[int]float64{},
		CompleteOverhead: map[int]float64{},
	}
	for _, cores := range coreCounts {
		cfg := sim.Default()
		cfg.Cores = cores
		r := Storage(cfg)
		out.Limited3KB[cores] = r.Limited3KB
		out.CompleteKB[cores] = r.CompleteKB
		out.Limited3Overhead[cores] = r.Limited3OverheadPct
		out.CompleteOverhead[cores] = r.CompleteOverheadPct
	}
	return out
}

// Render prints the storage-vs-cores table.
func (r *StorageScalingResult) Render(w io.Writer) error {
	t := report.NewTable(
		"Classifier storage vs core count (Section 3.6: Complete is 60% at 64 cores, >10x at 1024)",
		"cores", "Limited3 KB", "Complete KB", "Limited3 %", "Complete %")
	for _, c := range r.CoreCounts {
		t.AddRowValues(c, r.Limited3KB[c], r.CompleteKB[c],
			r.Limited3Overhead[c], r.CompleteOverhead[c])
	}
	return t.Write(w)
}

// PerformanceScalingResult holds the adaptive protocol's improvement over
// the PCT 1 baseline as the machine grows — an extension experiment: the
// paper argues the protocol matters more as on-chip distances grow.
type PerformanceScalingResult struct {
	CoreCounts []int
	Benches    []string
	// Geomean ratios (PCT4 / PCT1) per core count; lower is better.
	Completion map[int]float64
	Energy     map[int]float64
}

// DefaultScalingCores is the machine-size series PerformanceScaling runs
// when no explicit core counts are given.
var DefaultScalingCores = []int{16, 36, 64}

// PerformanceScaling runs baseline and adaptive configurations at each core
// count. Mesh width is the largest divisor <= sqrt(cores).
func PerformanceScaling(o Options, coreCounts []int) (*PerformanceScalingResult, error) {
	o = o.normalize()
	if len(coreCounts) == 0 {
		coreCounts = DefaultScalingCores
	}
	out := &PerformanceScalingResult{
		CoreCounts: coreCounts,
		Benches:    o.Benchmarks,
		Completion: map[int]float64{},
		Energy:     map[int]float64{},
	}
	for _, cores := range coreCounts {
		co := o
		co.Cores = cores
		co.MeshWidth = widestDivisor(cores)
		runs, err := co.grid([]variant{
			co.variant("base", func(c *sim.Config) { c.Protocol.PCT = 1 }),
			co.variant("adapt", func(c *sim.Config) { c.Protocol.PCT = 4 }),
		})
		if err != nil {
			return nil, fmt.Errorf("at %d cores: %w", cores, err)
		}
		out.Completion[cores] = geoRatio(runs[1], runs[0], completion)
		out.Energy[cores] = geoRatio(runs[1], runs[0], energy)
	}
	return out, nil
}

// widestDivisor returns the largest divisor of n not exceeding sqrt(n),
// giving the squarest possible mesh.
func widestDivisor(n int) int {
	best := 1
	for w := 1; w*w <= n; w++ {
		if n%w == 0 {
			best = w
		}
	}
	return best
}

// Render prints the scaling series.
func (r *PerformanceScalingResult) Render(w io.Writer) error {
	t := report.NewTable(
		"Adaptive protocol improvement vs core count (PCT 4 normalized to PCT 1)",
		"cores", "completion", "energy")
	for _, c := range r.CoreCounts {
		t.AddRowValues(c, r.Completion[c], r.Energy[c])
	}
	return t.Write(w)
}
