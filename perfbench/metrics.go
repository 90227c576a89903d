package main

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
)

// metricDef is one metric the benchmark reports. BENCHMARK.json at the
// repository root lists the same names, units, directions and bounds;
// TestBenchmarkJSONMatchesTables keeps the two in step.
type metricDef struct {
	Name, Unit, Better string
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression.
	Bound float64
	// Moves names the end-to-end metric and workload a per-layer metric
	// should move, written down before anything is measured.
	Moves string
}

// endToEnd metrics are what a user of lacc sees. Every workload reports
// every one of them; a "pass" is the workload's unit of work: one
// six-protocol comparison (sweep64, mesh256), one round of requests
// through all four serving tiers (serve), or one bounded model check of
// adaptive and MESI (check). setup_s is the median of the run's set-ups,
// wall_s the median pass, sim_maccess_per_s the median over passes of
// simulated data accesses per host second (check counts explored
// transitions), rss_peak_mb the process's peak resident set. The bounds
// are wide because on a shared two-CPU host the pass time of these
// memory-bound simulations drifts by about a tenth from minute to minute.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "sim_maccess_per_s", Unit: "Macc/s", Better: "higher", Bound: 0.25},
	{Name: "rss_peak_mb", Unit: "MB", Better: "lower", Bound: 0.2},
}

// protocolKinds are the registered coherence protocols, in the order the
// experiments package compares them.
var protocolKinds = []string{"mesi", "dragon", "dls", "neat", "hybrid", "adaptive"}

// perLayer metrics come from the traced run only.
var perLayer = func() []metricDef {
	ms := []metricDef{
		{"workloads.corpus_build_ns_per_access", "ns", "lower", 0, "setup_s on sweep64 and mesh256"},
		{"trace.replay_ns_per_access", "ns", "lower", 0, "wall_s on sweep64"},
	}
	for _, k := range protocolKinds {
		ms = append(ms,
			metricDef{"sim." + k + ".ns_per_access", "ns", "lower", 0, "wall_s and sim_maccess_per_s on sweep64 and mesh256"},
			metricDef{"sim." + k + ".hit_ns_per_access", "ns", "lower", 0, "wall_s on sweep64; no change on mesh256"},
			metricDef{"sim." + k + ".miss_ns_per_access", "ns", "lower", 0, "wall_s on mesh256"})
	}
	return append(ms, []metricDef{
		{"sim.reset_ms_64", "ms", "lower", 0, "setup_s on sweep64"},
		{"sim.reset_ms_256", "ms", "lower", 0, "setup_s and rss_peak_mb on mesh256"},
		{"sim.l1d_hit_ratio", "ratio", "higher", 0, "wall_s on sweep64 (simulated; repeats exactly)"},
		{"sim.broadcast_invals_per_kacc", "count/kacc", "lower", 0, "wall_s on mesh256 (simulated; repeats exactly)"},
		{"sim.adaptive_completion_ratio", "ratio", "lower", 0, "none: simulated adaptive / MESI geomean, repeats exactly"},
		{"sim.adaptive_energy_ratio", "ratio", "lower", 0, "none: simulated adaptive / MESI geomean, repeats exactly"},
		{"network.unicast_ns", "ns", "lower", 0, "wall_s on sweep64"},
		{"network.broadcast_ns_8x8", "ns", "lower", 0, "wall_s on sweep64"},
		{"network.broadcast_ns_16x16", "ns", "lower", 0, "wall_s on mesh256"},
		{"dram.read_ns", "ns", "lower", 0, "wall_s on sweep64"},
		{"cache.probe_hit_ns", "ns", "lower", 0, "wall_s on sweep64"},
		{"cache.insert_evict_ns", "ns", "lower", 0, "wall_s on sweep64"},
		{"coherence.sharerset_ackwise4_ns", "ns", "lower", 0, "wall_s on mesh256"},
		{"coherence.sharerset_full256_ns", "ns", "lower", 0, "wall_s on mesh256"},
		{"core.limited3_classify_ns", "ns", "lower", 0, "wall_s on sweep64 (adaptive and hybrid share)"},
		{"experiments.worker_idle_s", "s", "lower", 0, "wall_s on sweep64 (long-pole tail)"},
		{"experiments.claim_ns_per_job", "ns", "lower", 0, "serve mem tier latency"},
		{"experiments.tier_hits.cold", "count", "higher", 0, "none: simulations per pass"},
		{"experiments.tier_hits.mem", "count", "higher", 0, "none: memory-tier answers per pass"},
		{"experiments.tier_hits.disk", "count", "higher", 0, "none: disk-tier answers per pass"},
		{"experiments.tier_hits.peer", "count", "higher", 0, "none: peer-tier answers per pass"},
		{"server.encode_us_per_result", "us", "lower", 0, "serve mem tier latency"},
		{"server.handler_us", "us", "lower", 0, "serve mem tier latency"},
		{"server.rejected", "count", "lower", 0, "failed operations on serve"},
		{"store.put_fsync_us", "us", "lower", 0, "serve cold tier latency"},
		{"store.get_us", "us", "lower", 0, "serve disk tier latency"},
		{"store.open_recover_ms", "ms", "lower", 0, "setup_s on serve"},
		{"store.put_errors", "count", "lower", 0, "failed operations on serve"},
		{"cluster.fetch_us", "us", "lower", 0, "serve peer tier latency"},
		{"cluster.fetch_hit_ratio", "ratio", "higher", 0, "serve peer tier latency"},
		{"check.ns_per_transition", "ns", "lower", 0, "wall_s on check"},
		{"check.states", "count", "lower", 0, "none: exact state count of the suite's bounded check"},
		{"check.transitions", "count", "lower", 0, "none: exact transition count of the suite's bounded check"},
		{"trace.overhead_pct", "%", "lower", 0, "none: traced minus untraced pass time"},
	}...)
}()

// metricValue is one reported figure in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// resultLine builds the result from measured values, which must hold
// exactly the metrics in defs: a missing or extra metric is a bug in the
// benchmark, reported as an error rather than printed.
func resultLine(defs []metricDef, vals map[string]float64, attempted, failed int, correct bool) ([]byte, error) {
	r := result{Correct: correct, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.Name, v)
		}
		r.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	if len(vals) != len(defs) {
		var extra []string
		for name := range vals {
			if _, ok := r.Metrics[name]; !ok {
				extra = append(extra, name)
			}
		}
		sort.Strings(extra)
		return nil, fmt.Errorf("metrics measured but not declared: %v", extra)
	}
	return json.Marshal(r)
}
