package main

import (
	"fmt"
	"sync"
	"time"

	"lacc/internal/sim"
	"lacc/internal/stats"
	"lacc/internal/trace"
	"lacc/internal/workloads"
)

// corpusRef names one workload trace: a benchmark at a spec.
type corpusRef struct {
	bench string
	spec  workloads.Spec
}

// replayLayers times the layers under a workload on the workload's own
// inputs: it rebuilds the corpora (workloads), drains them (trace), and
// replays each under every protocol through sim.New/Reset/Run on
// `workers` goroutines (sim). cfgFor gives the machine for a protocol.
// The pass-derived metrics (idle time, tier answers) come from passes.
func replayLayers(tr *tracer, parent int64, refs []corpusRef, cfgFor func(sim.ProtocolKind) sim.Config, workers int, passes []passOutcome) (map[string]float64, error) {
	m := map[string]float64{}

	workloads.FlushCorpora()
	id := tr.start("workloads.Corpus", parent, 0)
	srcs := make([]trace.Source, len(refs))
	var total uint64
	for i, r := range refs {
		srcs[i] = workloads.MustByName(r.bench).Corpus(r.spec)
		total += sourceTotal(srcs[i])
	}
	d := tr.end(id)
	m["workloads.corpus_build_ns_per_access"] = float64(d.Nanoseconds()) / float64(total)

	id = tr.start("trace.replay", parent, 0)
	var drained uint64
	for _, src := range srcs {
		drained += drain(src)
	}
	d = tr.end(id)
	if drained != total {
		return nil, fmt.Errorf("replay drained %d accesses, corpora hold %d", drained, total)
	}
	m["trace.replay_ns_per_access"] = float64(d.Nanoseconds()) / float64(total)

	type job struct {
		kind sim.ProtocolKind
		ref  int
	}
	type done struct {
		job
		res *sim.Result
		d   time.Duration
		err error
	}
	var jobs []job
	for i := range refs {
		for _, k := range protocolKinds {
			jobs = append(jobs, job{sim.ProtocolKind(k), i})
		}
	}
	queue := make(chan job, len(jobs))
	for _, j := range jobs {
		queue <- j
	}
	close(queue)
	results := make(chan done, len(jobs))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var s *sim.Simulator
			for j := range queue {
				cfg := cfgFor(j.kind)
				var err error
				if s == nil {
					s, err = sim.New(cfg)
				} else {
					err = s.Reset(cfg)
				}
				if err != nil {
					results <- done{job: j, err: err}
					s = nil
					continue
				}
				id := tr.start("sim.Run."+string(j.kind), parent, 0)
				t0 := time.Now()
				res, err := s.Run(srcs[j.ref].Streams())
				d := time.Since(t0)
				tr.end(id)
				results <- done{j, res, d, err}
			}
		}()
	}
	wg.Wait()
	close(results)

	runTime := map[sim.ProtocolKind]time.Duration{}
	runAcc := map[sim.ProtocolKind]uint64{}
	byRef := make([]map[sim.ProtocolKind]*sim.Result, len(refs))
	var hits, l1d, bcast, dataAcc uint64
	for r := range results {
		if r.err != nil {
			return nil, fmt.Errorf("%s under %s: %w", refs[r.ref].bench, r.kind, r.err)
		}
		runTime[r.kind] += r.d
		runAcc[r.kind] += r.res.DataAccesses
		if byRef[r.ref] == nil {
			byRef[r.ref] = map[sim.ProtocolKind]*sim.Result{}
		}
		byRef[r.ref][r.kind] = r.res
		hits += r.res.L1D.Hits
		l1d += r.res.L1D.Accesses()
		bcast += r.res.BroadcastInvalidations
		dataAcc += r.res.DataAccesses
	}
	for _, k := range protocolKinds {
		kind := sim.ProtocolKind(k)
		m["sim."+k+".ns_per_access"] = float64(runTime[kind].Nanoseconds()) / float64(runAcc[kind])
	}
	m["sim.l1d_hit_ratio"] = float64(hits) / float64(l1d)
	m["sim.broadcast_invals_per_kacc"] = float64(bcast) / float64(dataAcc) * 1000
	var times, energies []float64
	for _, rs := range byRef {
		a, b := rs[sim.ProtocolAdaptive], rs[sim.ProtocolMESI]
		times = append(times, a.Time.Total()/b.Time.Total())
		energies = append(energies, a.Energy.Total()/b.Energy.Total())
	}
	m["sim.adaptive_completion_ratio"] = stats.GeoMean(times)
	m["sim.adaptive_energy_ratio"] = stats.GeoMean(energies)

	for i, name := range []string{"cold", "mem", "disk", "peer"} {
		var xs []float64
		for _, p := range passes {
			xs = append(xs, p.tiers[i])
		}
		m["experiments.tier_hits."+name] = median(xs)
	}
	var idle []float64
	for _, p := range passes {
		if p.traced {
			idle = append(idle, p.idle.Seconds())
		}
	}
	m["experiments.worker_idle_s"] = median(idle)
	return m, nil
}

// withKind returns the machine base under each protocol.
func withKind(base sim.Config) func(sim.ProtocolKind) sim.Config {
	return func(k sim.ProtocolKind) sim.Config {
		c := base
		c.ProtocolKind = k
		return c
	}
}

func sourceTotal(src trace.Source) uint64 {
	if t, ok := src.(interface{ Total() uint64 }); ok {
		return t.Total()
	}
	return drain(src)
}

// drain reads every access of every stream of src, as the simulator's
// fetch does, and returns the access count.
func drain(src trace.Source) uint64 {
	var n uint64
	for _, st := range src.Streams() {
		if cs, ok := st.(trace.ChunkStream); ok {
			for {
				chunk, ok := cs.NextChunk()
				if !ok {
					break
				}
				for _, a := range chunk {
					sink += uint64(a.Addr) + uint64(a.Gap)
				}
				n += uint64(len(chunk))
			}
		} else {
			for {
				a, ok := st.Next()
				if !ok {
					break
				}
				sink += uint64(a.Addr) + uint64(a.Gap)
				n++
			}
		}
		st.Close()
	}
	return n
}
