package experiments

import (
	"io"

	"lacc/internal/report"
	"lacc/internal/sim"
)

// VictimReplicationResult compares the three cache management schemes the
// paper's Section 2.1 discusses on the same R-NUCA + ACKwise substrate:
//
//   - the unmanaged baseline (every miss installs a private line, PCT 1),
//   - Victim Replication (clean L1 victims replicated in the local L2
//     slice, irrespective of reuse — the paper's critique),
//   - the locality-aware adaptive protocol at PCT 4.
type VictimReplicationResult struct {
	Benches []string
	// Geomean ratios normalized to the baseline; lower is better.
	VRCompletion, VREnergy       float64
	AdaptCompletion, AdaptEnergy float64
	// ReplicaHitRate is VR's replica hits per L1-D miss (how often the
	// replicated victims were actually reused).
	ReplicaHitRate float64
}

// VictimReplication runs the three-way comparison.
func VictimReplication(o Options) (*VictimReplicationResult, error) {
	o = o.normalize()
	runs, err := o.grid([]variant{
		o.variant("base", func(c *sim.Config) { c.Protocol.PCT = 1 }),
		o.variant("vr", func(c *sim.Config) {
			c.Protocol.PCT = 1
			c.VictimReplication = true
		}),
		o.variant("adapt", func(c *sim.Config) { c.Protocol.PCT = 4 }),
	})
	if err != nil {
		return nil, err
	}
	base, vr, adapt := runs[0], runs[1], runs[2]
	out := &VictimReplicationResult{
		Benches:         o.Benchmarks,
		VRCompletion:    geoRatio(vr, base, completion),
		VREnergy:        geoRatio(vr, base, energy),
		AdaptCompletion: geoRatio(adapt, base, completion),
		AdaptEnergy:     geoRatio(adapt, base, energy),
	}
	var hits, misses uint64
	for _, v := range vr {
		hits += v.ReplicaHits
		misses += v.L1D.TotalMisses()
	}
	if misses > 0 {
		out.ReplicaHitRate = float64(hits) / float64(misses)
	}
	return out, nil
}

// Render prints the three-way comparison.
func (r *VictimReplicationResult) Render(w io.Writer) error {
	t := report.NewTable(
		"Victim Replication vs locality-aware protocol (geomeans normalized to the unmanaged baseline)",
		"scheme", "completion", "energy")
	t.AddRowValues("baseline (PCT 1)", 1.0, 1.0)
	t.AddRowValues("victim replication", r.VRCompletion, r.VREnergy)
	t.AddRowValues("locality-aware (PCT 4)", r.AdaptCompletion, r.AdaptEnergy)
	if err := t.Write(w); err != nil {
		return err
	}
	_, err := io.WriteString(w, "VR replica hits per L1-D miss: "+report.Cell(r.ReplicaHitRate)+"\n")
	return err
}
