package experiments

import (
	"fmt"
	"io"
	"sort"

	"lacc/internal/report"
	"lacc/internal/sim"
	"lacc/internal/stats"
)

// Fig8PCTs are the private-caching-threshold values swept in Figures 8-10.
var Fig8PCTs = []int{1, 2, 3, 4, 5, 6, 7, 8}

// Fig10PCTs is the reduced sweep of Figure 10.
var Fig10PCTs = []int{1, 2, 3, 4, 6, 8}

// Fig11PCTs extends the sweep for the geometric-mean study of Figure 11.
var Fig11PCTs = []int{1, 2, 3, 4, 5, 6, 7, 8, 10, 12, 14, 16, 18, 20}

// PCTSweep holds one simulation per (benchmark, PCT): the shared data
// behind Figures 8, 9, 10 and 11.
type PCTSweep struct {
	PCTs    []int
	Benches []string
	// Results maps bench -> PCT -> result.
	Results map[string]map[int]*sim.Result
}

// RunPCTSweep simulates every selected benchmark at every PCT value.
func RunPCTSweep(o Options, pcts []int) (*PCTSweep, error) {
	o = o.normalize()
	if len(pcts) == 0 {
		pcts = Fig8PCTs
	}
	vs := make([]variant, len(pcts))
	for i, pct := range pcts {
		vs[i] = o.variant(fmt.Sprintf("pct%d", pct), func(c *sim.Config) {
			c.Protocol.PCT = pct
			// RAT starts at PCT, so the ladder ceiling must keep up when
			// the sweep passes the default RATmax of 16 (Figure 11 sweeps
			// PCT to 20).
			if c.Protocol.RATMax < pct {
				c.Protocol.RATMax = pct
			}
		})
	}
	runs, err := o.grid(vs)
	if err != nil {
		return nil, err
	}
	sw := &PCTSweep{PCTs: pcts, Benches: o.Benchmarks, Results: map[string]map[int]*sim.Result{}}
	for b, bench := range o.Benchmarks {
		m := make(map[int]*sim.Result, len(pcts))
		for i, pct := range pcts {
			m[pct] = runs[i][b]
		}
		sw.Results[bench] = m
	}
	return sw, nil
}

// at returns the result for (bench, pct), panicking on absent entries
// (which would indicate a bug in the sweep bookkeeping).
func (s *PCTSweep) at(bench string, pct int) *sim.Result {
	r := s.Results[bench][pct]
	if r == nil {
		panic(fmt.Sprintf("experiments: missing sweep point %s/pct%d", bench, pct))
	}
	return r
}

// baseline returns the PCT used as the normalization reference (the
// smallest swept value; 1 reproduces the paper).
func (s *PCTSweep) baseline() int {
	b := s.PCTs[0]
	for _, p := range s.PCTs {
		if p < b {
			b = p
		}
	}
	return b
}

// column returns the sweep's runs at pct, one per benchmark.
func (s *PCTSweep) column(pct int) []*sim.Result {
	col := make([]*sim.Result, len(s.Benches))
	for b, bench := range s.Benches {
		col[b] = s.at(bench, pct)
	}
	return col
}

// energyShares splits one run's energy into the Figure 8 components,
// normalized against the same benchmark's baseline total.
func energyShares(r, base *sim.Result) []float64 {
	t := base.Energy.Total()
	if t == 0 {
		return make([]float64, 6)
	}
	e := r.Energy
	return []float64{e.L1I / t, e.L1D / t, e.L2 / t, e.Directory / t, e.Router / t, e.Link / t}
}

// timeShares splits one run's completion-time breakdown into the Figure 9
// components, normalized against the benchmark's baseline total.
func timeShares(r, base *sim.Result) []float64 {
	t := base.Time.Total()
	if t == 0 {
		return make([]float64, 6)
	}
	b := r.Time
	return []float64{b.Compute / t, b.L1ToL2 / t, b.L2Waiting / t, b.L2Sharers / t, b.OffChip / t, b.Sync / t}
}

// RenderFig8 prints the Figure 8 energy breakdown: for every benchmark and
// PCT, the six energy components normalized to the benchmark's total at the
// baseline PCT, followed by the cross-benchmark average.
func (s *PCTSweep) RenderFig8(w io.Writer) error {
	return s.renderShares(w,
		"Figure 8: dynamic energy breakdown vs PCT (normalized to PCT 1 total per benchmark)",
		[]string{"L1-I", "L1-D", "L2", "dir", "router", "link"}, energyShares)
}

// RenderFig9 prints the Figure 9 completion-time breakdown, normalized like
// Figure 8.
func (s *PCTSweep) RenderFig9(w io.Writer) error {
	return s.renderShares(w,
		"Figure 9: completion time breakdown vs PCT (normalized to PCT 1 total per benchmark)",
		[]string{"compute", "L1-L2", "L2-wait", "L2-sharers", "off-chip", "sync"}, timeShares)
}

// renderShares prints one row per (benchmark, PCT) of the six shares split
// out of each run against the benchmark's baseline run, with their total,
// followed by one AVERAGE row per PCT.
func (s *PCTSweep) renderShares(w io.Writer, title string, parts []string,
	split func(r, base *sim.Result) []float64) error {
	t := report.NewTable(title, append(append([]string{"benchmark", "pct"}, parts...), "total")...)
	base := s.baseline()
	avg := make(map[int][]float64, len(s.PCTs))
	for _, bench := range s.Benches {
		for _, pct := range s.PCTs {
			shares := split(s.at(bench, pct), s.at(bench, base))
			total := 0.0
			for _, v := range shares {
				total += v
			}
			t.AddRowValues(labelOf(bench), pct,
				shares[0], shares[1], shares[2], shares[3], shares[4], shares[5], total)
			if avg[pct] == nil {
				avg[pct] = make([]float64, 7)
			}
			for i, v := range shares {
				avg[pct][i] += v
			}
			avg[pct][6] += total
		}
	}
	n := float64(len(s.Benches))
	for _, pct := range s.PCTs {
		a := avg[pct]
		t.AddRowValues("AVERAGE", pct, a[0]/n, a[1]/n, a[2]/n, a[3]/n, a[4]/n, a[5]/n, a[6]/n)
	}
	return t.Write(w)
}

// RenderFig10 prints the Figure 10 L1-D miss-rate and miss-type breakdown.
func (s *PCTSweep) RenderFig10(w io.Writer) error {
	t := report.NewTable(
		"Figure 10: L1-D miss rate (%) and miss-type breakdown vs PCT",
		"benchmark", "pct", "cold", "capacity", "upgrade", "sharing", "word", "total%")
	for _, bench := range s.Benches {
		for _, pct := range s.PCTs {
			r := s.at(bench, pct)
			t.AddRowValues(labelOf(bench), pct,
				r.L1D.RateOf(stats.MissCold),
				r.L1D.RateOf(stats.MissCapacity),
				r.L1D.RateOf(stats.MissUpgrade),
				r.L1D.RateOf(stats.MissSharing),
				r.L1D.RateOf(stats.MissWord),
				r.L1D.Rate())
		}
	}
	return t.Write(w)
}

// Fig11Point is one PCT of the Figure 11 geometric-mean study.
type Fig11Point struct {
	PCT        int
	Completion float64 // geomean completion time, normalized to baseline
	Energy     float64 // geomean energy, normalized to baseline
}

// Fig11 reduces the sweep to the Figure 11 geometric means and reports the
// PCT selected the way Section 5.1.3 does (the completion-time/energy sweet
// spot).
type Fig11Result struct {
	Points []Fig11Point
	// BestPCT is the static threshold choice of Section 5.1.3: the valley
	// of completion + energy is typically flat (the paper reads "constant
	// completion time till a PCT of 4" off it), so the smallest PCT within
	// half a percent of the minimum is selected.
	BestPCT int
}

// Fig11 computes the geometric means over the sweep's benchmarks.
func (s *PCTSweep) Fig11() *Fig11Result {
	refs := s.column(s.baseline())
	out := &Fig11Result{}
	for _, pct := range s.PCTs {
		col := s.column(pct)
		out.Points = append(out.Points, Fig11Point{
			PCT:        pct,
			Completion: geoRatio(col, refs, completion),
			Energy:     geoRatio(col, refs, energy),
		})
	}
	sort.Slice(out.Points, func(i, j int) bool { return out.Points[i].PCT < out.Points[j].PCT })
	minSum := 0.0
	for i, p := range out.Points {
		if sum := p.Completion + p.Energy; i == 0 || sum < minSum {
			minSum = sum
		}
	}
	for _, p := range out.Points {
		if p.Completion+p.Energy <= minSum*1.005 {
			out.BestPCT = p.PCT
			break
		}
	}
	return out
}

// Render prints the Figure 11 series plus the selected static PCT.
func (f *Fig11Result) Render(w io.Writer) error {
	t := report.NewTable(
		"Figure 11: geometric means vs PCT (normalized to PCT 1)",
		"pct", "completion", "energy")
	for _, p := range f.Points {
		t.AddRowValues(p.PCT, p.Completion, p.Energy)
	}
	if err := t.Write(w); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "selected static PCT: %d (paper: 4; 15%% completion, 25%% energy improvement)\n", f.BestPCT)
	return err
}
