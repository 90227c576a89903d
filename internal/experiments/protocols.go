package experiments

import (
	"fmt"
	"io"

	"lacc/internal/report"
	"lacc/internal/sim"
)

// ProtocolComparisonResult holds one simulation per (benchmark, coherence
// protocol): the side-by-side evaluation the paper's comparative claims
// rest on, extended with the Dragon write-update baseline. Results[bench]
// maps each protocol kind to its run.
type ProtocolComparisonResult struct {
	Benches   []string
	Protocols []sim.ProtocolKind
	Results   map[string]map[sim.ProtocolKind]*sim.Result

	// Geomeans normalized to the first protocol in Protocols (the
	// reference baseline, MESI by default).
	Completion map[sim.ProtocolKind]float64
	Energy     map[sim.ProtocolKind]float64
	Traffic    map[sim.ProtocolKind]float64 // link flits
}

// ProtocolComparison runs every selected benchmark under each coherence
// protocol. A nil kinds list compares every registered protocol: full-map
// MESI (the reference, always first), Dragon write-update, the
// directoryless shared-LLC DLS, the self-invalidating single-pointer
// Neat, the per-line MESI/Dragon hybrid and the locality-aware adaptive
// protocol.
func ProtocolComparison(o Options, kinds []sim.ProtocolKind) (*ProtocolComparisonResult, error) {
	o = o.normalize()
	if len(kinds) == 0 {
		kinds = []sim.ProtocolKind{
			sim.ProtocolMESI, sim.ProtocolDragon, sim.ProtocolDLS,
			sim.ProtocolNeat, sim.ProtocolHybrid, sim.ProtocolAdaptive,
		}
	}
	vs := make([]variant, len(kinds))
	for i, kind := range kinds {
		vs[i] = o.variant(string(kind), func(c *sim.Config) { c.ProtocolKind = kind })
	}
	runs, err := o.grid(vs)
	if err != nil {
		return nil, err
	}

	out := &ProtocolComparisonResult{
		Benches:    o.Benchmarks,
		Protocols:  kinds,
		Results:    make(map[string]map[sim.ProtocolKind]*sim.Result, len(o.Benchmarks)),
		Completion: map[sim.ProtocolKind]float64{},
		Energy:     map[sim.ProtocolKind]float64{},
		Traffic:    map[sim.ProtocolKind]float64{},
	}
	for b, bench := range o.Benchmarks {
		m := make(map[sim.ProtocolKind]*sim.Result, len(kinds))
		for i, kind := range kinds {
			m[kind] = runs[i][b]
		}
		out.Results[bench] = m
	}
	for i, kind := range kinds {
		out.Completion[kind] = geoRatio(runs[i], runs[0], completion)
		out.Energy[kind] = geoRatio(runs[i], runs[0], energy)
		out.Traffic[kind] = geoRatio(runs[i], runs[0], linkFlits)
	}
	return out, nil
}

// Render prints one row per (benchmark, protocol) with the raw evaluation
// metrics, then the geomeans normalized to the reference protocol.
func (p *ProtocolComparisonResult) Render(w io.Writer) error {
	t := report.NewTable(
		"protocol comparison: completion / energy / traffic per coherence protocol",
		"benchmark", "protocol", "completion", "energy-pJ", "link-flits",
		"miss-rate", "invals", "updates", "word-accesses")
	for _, bench := range p.Benches {
		for _, kind := range p.Protocols {
			r := p.Results[bench][kind]
			t.AddRowValues(labelOf(bench), string(kind),
				uint64(r.CompletionCycles), r.Energy.Total(), r.LinkFlits,
				fmt.Sprintf("%.2f%%", r.L1DMissRate()),
				r.Invalidations, r.UpdateWrites, r.WordReads+r.WordWrites)
		}
	}
	if err := t.Write(w); err != nil {
		return err
	}
	g := report.NewTable(
		fmt.Sprintf("geomeans normalized to %s", p.Protocols[0]),
		"protocol", "completion", "energy", "traffic")
	for _, kind := range p.Protocols {
		g.AddRowValues(string(kind), p.Completion[kind], p.Energy[kind], p.Traffic[kind])
	}
	return g.Write(w)
}
