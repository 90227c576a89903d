package experiments

import (
	"fmt"
	"io"

	"lacc/internal/report"
	"lacc/internal/sim"
	"lacc/internal/stats"
)

// Fig1And2Result holds the baseline invalidation and eviction utilization
// histograms of Figures 1 and 2.
type Fig1And2Result struct {
	Benches      []string
	Invalidation map[string]stats.UtilizationHistogram
	Eviction     map[string]stats.UtilizationHistogram
}

// Fig1And2 runs the baseline (PCT 1) and collects, per benchmark, the
// distribution of private-cache line utilization observed at invalidation
// (Figure 1) and eviction (Figure 2) time.
func Fig1And2(o Options) (*Fig1And2Result, error) {
	o = o.normalize()
	runs, err := o.grid([]variant{o.variant("base", func(c *sim.Config) {
		c.Protocol.PCT = 1 // baseline: everything is privately cached
		c.TrackUtilization = true
	})})
	if err != nil {
		return nil, err
	}
	out := &Fig1And2Result{
		Benches:      o.Benchmarks,
		Invalidation: map[string]stats.UtilizationHistogram{},
		Eviction:     map[string]stats.UtilizationHistogram{},
	}
	for b, bench := range o.Benchmarks {
		out.Invalidation[bench] = runs[0][b].InvalidationUtil
		out.Eviction[bench] = runs[0][b].EvictionUtil
	}
	return out, nil
}

// Render prints both histograms as percentage breakdowns over the paper's
// utilization bins.
func (f *Fig1And2Result) Render(w io.Writer) error {
	for _, part := range []struct {
		title string
		data  map[string]stats.UtilizationHistogram
	}{
		{"Figure 1: invalidations breakdown vs utilization (%)", f.Invalidation},
		{"Figure 2: evictions breakdown vs utilization (%)", f.Eviction},
	} {
		t := report.NewTable(part.title,
			"benchmark", stats.BucketLabels[0], stats.BucketLabels[1],
			stats.BucketLabels[2], stats.BucketLabels[3], stats.BucketLabels[4], "samples")
		for _, bench := range f.Benches {
			h := part.data[bench]
			p := h.Percent()
			t.AddRowValues(labelOf(bench), p[0], p[1], p[2], p[3], p[4], h.Total())
		}
		if err := t.Write(w); err != nil {
			return err
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	return nil
}

// RATVariant is one configuration of the Figure 12 sensitivity study.
type RATVariant struct {
	Name       string
	Timestamp  bool
	NRATLevels int
	RATMax     int
}

// Fig12Variants reproduces the x-axis of Figure 12: the Timestamp-based
// reference followed by RAT-level/threshold combinations (L = nRATlevels,
// T = RATmax).
var Fig12Variants = []RATVariant{
	{Name: "Timestamp", Timestamp: true},
	{Name: "L-1", NRATLevels: 1, RATMax: 16},
	{Name: "L-2,T-8", NRATLevels: 2, RATMax: 8},
	{Name: "L-2,T-16", NRATLevels: 2, RATMax: 16},
	{Name: "L-4,T-8", NRATLevels: 4, RATMax: 8},
	{Name: "L-4,T-16", NRATLevels: 4, RATMax: 16},
	{Name: "L-8,T-16", NRATLevels: 8, RATMax: 16},
}

// Fig12Result holds geometric-mean completion time and energy per variant,
// normalized to the Timestamp scheme.
type Fig12Result struct {
	Variants   []string
	Completion map[string]float64
	Energy     map[string]float64
}

// Fig12 runs the RAT sensitivity study at the default PCT.
func Fig12(o Options) (*Fig12Result, error) {
	o = o.normalize()
	vs := make([]variant, len(Fig12Variants))
	for i, v := range Fig12Variants {
		vs[i] = o.variant(v.Name, func(c *sim.Config) {
			c.Protocol.UseTimestamp = v.Timestamp
			if !v.Timestamp {
				c.Protocol.NRATLevels = v.NRATLevels
				c.Protocol.RATMax = v.RATMax
			}
		})
	}
	runs, err := o.grid(vs)
	if err != nil {
		return nil, err
	}
	out := &Fig12Result{Completion: map[string]float64{}, Energy: map[string]float64{}}
	for i, v := range Fig12Variants {
		out.Variants = append(out.Variants, v.Name)
		out.Completion[v.Name] = geoRatio(runs[i], runs[0], completion)
		out.Energy[v.Name] = geoRatio(runs[i], runs[0], energy)
	}
	return out, nil
}

// Render prints the Figure 12 series.
func (f *Fig12Result) Render(w io.Writer) error {
	t := report.NewTable(
		"Figure 12: RAT sensitivity, normalized to the Timestamp classification",
		"variant", "completion", "energy")
	for _, v := range f.Variants {
		t.AddRowValues(v, f.Completion[v], f.Energy[v])
	}
	return t.Write(w)
}

// Fig13Ks are the Limited-k classifier sizes of Figure 13; the core count
// stands in for the Complete classifier.
func Fig13Ks(cores int) []int { return []int{1, 3, 5, 7, cores} }

// Fig13Result holds per-benchmark completion time and energy per k,
// normalized to the Complete classifier.
type Fig13Result struct {
	Ks         []int
	Benches    []string
	Completion map[string]map[int]float64
	Energy     map[string]map[int]float64
}

// Fig13 runs the Limited-k accuracy study at the default PCT.
func Fig13(o Options) (*Fig13Result, error) {
	o = o.normalize()
	ks := Fig13Ks(o.Cores)
	vs := make([]variant, len(ks))
	for i, k := range ks {
		vs[i] = o.variant(fmt.Sprintf("k%d", k), func(c *sim.Config) { c.ClassifierK = k })
	}
	runs, err := o.grid(vs)
	if err != nil {
		return nil, err
	}
	out := &Fig13Result{
		Ks: ks, Benches: o.Benchmarks,
		Completion: map[string]map[int]float64{},
		Energy:     map[string]map[int]float64{},
	}
	complete := runs[len(ks)-1]
	for b, bench := range o.Benchmarks {
		ct := map[int]float64{}
		en := map[int]float64{}
		for i, k := range ks {
			if x, ok := ratio(runs[i][b], complete[b], completion); ok {
				ct[k] = x
			}
			if x, ok := ratio(runs[i][b], complete[b], energy); ok {
				en[k] = x
			}
		}
		out.Completion[bench] = ct
		out.Energy[bench] = en
	}
	return out, nil
}

// Render prints the Figure 13 per-benchmark series.
func (f *Fig13Result) Render(w io.Writer) error {
	headers := []string{"benchmark"}
	for _, k := range f.Ks {
		headers = append(headers, fmt.Sprintf("k=%d", k))
	}
	for _, part := range []struct {
		title string
		data  map[string]map[int]float64
	}{
		{"Figure 13a: completion time, Limited-k normalized to Complete", f.Completion},
		{"Figure 13b: energy, Limited-k normalized to Complete", f.Energy},
	} {
		t := report.NewTable(part.title, headers...)
		for _, bench := range f.Benches {
			values := []any{labelOf(bench)}
			for _, k := range f.Ks {
				values = append(values, part.data[bench][k])
			}
			t.AddRowValues(values...)
		}
		if err := t.Write(w); err != nil {
			return err
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	return nil
}

// Fig14Result holds the Adapt1-way over Adapt2-way ratios of Figure 14.
type Fig14Result struct {
	Benches       []string
	TimeRatio     map[string]float64
	EnergyRatio   map[string]float64
	GeomeanTime   float64
	GeomeanEnergy float64
}

// Fig14 compares the simpler one-way-transition protocol (Section 3.7)
// against the full two-way protocol at the default PCT.
func Fig14(o Options) (*Fig14Result, error) {
	o = o.normalize()
	runs, err := o.grid([]variant{
		o.variant("2way", nil),
		o.variant("1way", func(c *sim.Config) { c.Protocol.OneWay = true }),
	})
	if err != nil {
		return nil, err
	}
	two, one := runs[0], runs[1]
	out := &Fig14Result{
		Benches:       o.Benchmarks,
		TimeRatio:     map[string]float64{},
		EnergyRatio:   map[string]float64{},
		GeomeanTime:   geoRatio(one, two, completion),
		GeomeanEnergy: geoRatio(one, two, energy),
	}
	for b, bench := range o.Benchmarks {
		if x, ok := ratio(one[b], two[b], completion); ok {
			out.TimeRatio[bench] = x
		}
		if x, ok := ratio(one[b], two[b], energy); ok {
			out.EnergyRatio[bench] = x
		}
	}
	return out, nil
}

// Render prints the Figure 14 ratios (higher = the one-way protocol is
// worse, i.e. two-way transitions matter).
func (f *Fig14Result) Render(w io.Writer) error {
	t := report.NewTable(
		"Figure 14: Adapt1-way / Adapt2-way ratio (paper geomeans: 1.34x time, 1.13x energy)",
		"benchmark", "completion-ratio", "energy-ratio")
	for _, bench := range f.Benches {
		t.AddRowValues(labelOf(bench), f.TimeRatio[bench], f.EnergyRatio[bench])
	}
	t.AddRowValues("GEOMEAN", f.GeomeanTime, f.GeomeanEnergy)
	return t.Write(w)
}

// AckwiseComparisonResult compares ACKwise-p directories (including the
// full-map special case) under the baseline protocol, reproducing the
// Section 5 prologue check and serving as the directory-pressure ablation.
type AckwiseComparisonResult struct {
	Pointers   []int
	Completion map[int]float64 // geomean, normalized to full-map
	Energy     map[int]float64
	Broadcasts map[int]uint64 // total broadcast invalidations
}

// AckwiseComparison sweeps the ACKwise pointer count. With no explicit
// pointer list it compares ACKwise4 against the full-map directory.
func AckwiseComparison(o Options, pointers []int) (*AckwiseComparisonResult, error) {
	o = o.normalize()
	if len(pointers) == 0 {
		pointers = []int{4, o.Cores}
	}
	vs := make([]variant, len(pointers))
	for i, p := range pointers {
		vs[i] = o.variant(fmt.Sprintf("p%d", p), func(c *sim.Config) { c.AckwisePointers = p })
	}
	runs, err := o.grid(vs)
	if err != nil {
		return nil, err
	}
	out := &AckwiseComparisonResult{
		Pointers:   pointers,
		Completion: map[int]float64{},
		Energy:     map[int]float64{},
		Broadcasts: map[int]uint64{},
	}
	ref := runs[len(pointers)-1]
	for i, p := range pointers {
		out.Completion[p] = geoRatio(runs[i], ref, completion)
		out.Energy[p] = geoRatio(runs[i], ref, energy)
		for _, r := range runs[i] {
			out.Broadcasts[p] += r.BroadcastInvalidations
		}
	}
	return out, nil
}

// Render prints the ACKwise sweep.
func (a *AckwiseComparisonResult) Render(w io.Writer) error {
	t := report.NewTable(
		"ACKwise-p vs full-map (geomeans normalized to full-map; paper: ACKwise4 within ~1%)",
		"pointers", "completion", "energy", "broadcast-invals")
	for _, p := range a.Pointers {
		t.AddRowValues(p, a.Completion[p], a.Energy[p], a.Broadcasts[p])
	}
	return t.Write(w)
}

// Baseline returns one simulation of a single benchmark under cfg —
// a convenience used by tests and the CLI's single-run mode.
func Baseline(o Options, bench string, cfg sim.Config) (*sim.Result, error) {
	o = o.normalize()
	return o.simulate(job{bench: bench, variant: "single", cfg: cfg})
}
