// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 5). Each experiment runs the required set of
// simulations — in parallel, since runs are independent — and returns a
// structured result with a Render method that prints rows comparable to the
// paper's artwork.
//
// Experiment index (see DESIGN.md for the full mapping):
//
//	Fig1And2    — invalidation/eviction breakdown vs utilization (baseline)
//	PCTSweep    — shared runs behind Figures 8, 9, 10 and 11
//	Fig12       — remote-access-threshold (RAT) sensitivity vs Timestamp
//	Fig13       — Limited-k classifier accuracy vs the Complete classifier
//	Fig14       — Adapt1-way / Adapt2-way ratios
//	Table1      — architectural parameters
//	Table2      — benchmark catalog
//	Storage     — Section 3.6 storage-overhead arithmetic
//	AckwiseComparison — ACKwise4 vs full-map baseline check (Section 5 prologue)
//
// Experiments are batch calls, but they are built to be served: a shared
// Session memoizes every simulation by fingerprint and coalesces
// concurrent identical work, Options.Context abandons queued jobs when
// the caller goes away, and Options.Progress streams completion counts —
// the mechanics internal/server exposes over HTTP as lacc-serve.
package experiments

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"lacc/internal/sim"
	"lacc/internal/stats"
	"lacc/internal/workloads"
)

// Options selects the machine size, workload scale and benchmark subset for
// an experiment. The zero value means: the paper's 64-core machine, scale
// 1.0, all 21 benchmarks, one simulation per CPU in parallel.
type Options struct {
	// Cores and MeshWidth set the machine geometry (Table 1: 64 cores, 8x8).
	Cores     int
	MeshWidth int
	// Scale is the workload problem-size multiplier.
	Scale float64
	// Seed perturbs workload randomness.
	Seed uint64
	// Benchmarks restricts the run to a subset (nil = all registered).
	Benchmarks []string
	// Parallelism bounds concurrent simulations (<= 0: GOMAXPROCS).
	Parallelism int
	// Config customizes the base machine; nil uses sim.Default. PCT and
	// classifier fields are overridden per experiment as needed.
	Config *sim.Config
	// Session, when set, shares the simulation-result cache and the
	// reusable-simulator pool across experiment calls, so identical
	// (benchmark, configuration) jobs — the PCT points Figures 8, 10 and
	// 11 have in common, every experiment's baseline runs — simulate once
	// per session instead of once per experiment. Nil runs the experiment
	// with a private session (dedup within the call only).
	Session *Session
	// Context, when non-nil, cancels the experiment: once Context is done,
	// worker goroutines abandon every job still queued (simulations already
	// executing run to completion — the simulator has no preemption points
	// — but no new one starts) and the experiment returns Context's error.
	// Abandoned fingerprints are unpinned from the session, so concurrent
	// or later batches re-claim and run them instead of inheriting the
	// cancellation. Nil means never canceled. lacc-serve threads each HTTP
	// request's context through here so a disconnected client stops paying
	// for its sweep.
	Context context.Context
	// Progress, when non-nil, observes the batch's simulation progress:
	// it is called once with (0, total) when a job batch starts — total is
	// the number of simulations the batch must actually run after session
	// dedup, so a fully cached batch reports (0, 0) — and then with the
	// running completion count after each simulation finishes. Completion
	// calls are made concurrently from worker goroutines; the callback
	// must be safe for concurrent use. Experiments that schedule several
	// batches (PerformanceScaling runs one per core count) restart the
	// count per batch.
	Progress func(done, total int)
}

// ctx returns the batch's cancellation context, never nil.
func (o Options) ctx() context.Context {
	if o.Context == nil {
		return context.Background()
	}
	return o.Context
}

func (o Options) normalize() Options {
	if o.Cores <= 0 {
		o.Cores = 64
	}
	if o.MeshWidth <= 0 {
		switch {
		case o.Cores%8 == 0 && o.Cores >= 64:
			o.MeshWidth = 8
		case o.Cores%4 == 0:
			o.MeshWidth = 4
		default:
			o.MeshWidth = o.Cores
		}
	}
	if o.Scale <= 0 {
		o.Scale = 1
	}
	if len(o.Benchmarks) == 0 {
		o.Benchmarks = workloads.Names()
	}
	if o.Parallelism <= 0 {
		o.Parallelism = runtime.GOMAXPROCS(0)
	}
	return o
}

// baseConfig returns the machine configuration for this Options. The
// golden-store functional checker is disabled unless the caller supplied
// an explicit Config: it is a test/debug aid whose versions never feed any
// Result field (sim's TestCheckValuesNeutral pins the bit-identity), and an
// experiment session runs thousands of simulations that would otherwise
// each pay a hash-table update per store plus a full end-of-run audit.
func (o Options) baseConfig() sim.Config {
	var cfg sim.Config
	if o.Config != nil {
		cfg = *o.Config
	} else {
		cfg = sim.Default()
		cfg.CheckValues = false
	}
	cfg.Cores = o.Cores
	cfg.MeshWidth = o.MeshWidth
	if cfg.MemControllers > o.Cores {
		cfg.MemControllers = o.Cores
	}
	return cfg
}

// BaseConfig returns the normalized machine configuration jobs of this
// Options run under, before per-experiment variant overrides (PCT,
// protocol kind, classifier size). lacc-serve builds per-request
// configurations through it so served jobs normalize into exactly the
// fingerprints direct experiment calls produce.
func (o Options) BaseConfig() sim.Config {
	return o.normalize().baseConfig()
}

// spec returns the workload build spec for this Options.
func (o Options) spec() workloads.Spec {
	return workloads.Spec{Cores: o.Cores, Scale: o.Scale, Seed: o.Seed}
}

// job is one simulation: a benchmark under a configuration variant.
type job struct {
	bench   string
	variant string
	cfg     sim.Config
}

// variant is one column of an experiment's grid: a machine configuration
// every selected benchmark runs under. The name only labels errors.
type variant struct {
	name string
	cfg  sim.Config
}

// variant returns the base configuration as changed by tweak (nil keeps
// it as is), named for error messages.
func (o Options) variant(name string, tweak func(*sim.Config)) variant {
	cfg := o.baseConfig()
	if tweak != nil {
		tweak(&cfg)
	}
	return variant{name: name, cfg: cfg}
}

// grid runs every selected benchmark under every variant and returns
// runs[v][b]: variant v's result for o.Benchmarks[b]. Jobs are queued
// benchmark by benchmark, so workers replay one hot corpus across its
// variants.
func (o Options) grid(vs []variant) ([][]*sim.Result, error) {
	jobs := make([]job, 0, len(o.Benchmarks)*len(vs))
	for _, bench := range o.Benchmarks {
		for _, v := range vs {
			jobs = append(jobs, job{bench: bench, variant: v.name, cfg: v.cfg})
		}
	}
	res, err := o.runJobs(jobs)
	if err != nil {
		return nil, err
	}
	runs := make([][]*sim.Result, len(vs))
	for v := range vs {
		runs[v] = make([]*sim.Result, len(o.Benchmarks))
		for b := range o.Benchmarks {
			runs[v][b] = res[b*len(vs)+v]
		}
	}
	return runs, nil
}

// The metrics experiments normalize: completion time, dynamic energy and
// network traffic in link flits.
func completion(r *sim.Result) float64 { return r.Time.Total() }
func energy(r *sim.Result) float64     { return r.Energy.Total() }
func linkFlits(r *sim.Result) float64  { return float64(r.LinkFlits) }

// ratio returns metric(r) normalized to metric(ref), and whether that is
// defined (ref's metric is positive).
func ratio(r, ref *sim.Result, metric func(*sim.Result) float64) (float64, bool) {
	m := metric(ref)
	return metric(r) / m, m > 0
}

// geoRatio is the paper's summary statistic: the geometric mean over
// benchmarks of runs[b]'s metric normalized to refs[b]'s, skipping the
// benchmarks where the ratio is undefined.
func geoRatio(runs, refs []*sim.Result, metric func(*sim.Result) float64) float64 {
	ratios := make([]float64, 0, len(refs))
	for b, ref := range refs {
		if x, ok := ratio(runs[b], ref, metric); ok {
			ratios = append(ratios, x)
		}
	}
	return stats.GeoMean(ratios)
}

// errAborted marks jobs skipped because an earlier job in the batch
// failed.
var errAborted = errors.New("aborted after earlier failure")

// testJobDone, when non-nil, is invoked by each worker after finishing a
// job. Tests use it to observe the scheduler mid-sweep (live goroutine
// counts, executed-job counts) without timing races.
var testJobDone func()

// simFault, when armed via SetSimFault, runs before every simulation with
// the job's benchmark name. Fault-injection tests use it to make chosen
// simulations panic or block, proving the recovery paths (resolve's
// recover, the server's panic middleware, deadline cancellation) against
// real in-flight work. The workloads registry is sealed, so this hook is
// the supported way to plant a misbehaving "benchmark".
var simFault atomic.Pointer[func(bench string)]

// SetSimFault arms (or, with nil, disarms) the simulation fault hook. Test
// use only; the hook is deliberately outside Options so it cannot perturb
// fingerprints.
func SetSimFault(f func(bench string)) {
	if f == nil {
		simFault.Store(nil)
		return
	}
	simFault.Store(&f)
}

// workItem is one claimed simulation a worker must perform.
type workItem struct {
	key   runKey
	entry *runEntry
	job   job
}

// runJobs executes all jobs with bounded parallelism and returns their
// results in job order. The first simulation error aborts the batch,
// as does cancellation of Options.Context (queued jobs are abandoned; the
// context's error is returned).
//
// Scheduling: jobs are first deduplicated against the session's result
// cache — identical (bench, spec, cfg) fingerprints simulate once, within
// the batch and across every experiment sharing the session. The surviving
// work runs on a pool of exactly min(Parallelism, jobs) worker goroutines;
// each worker owns one reusable Simulator (drawn from the session pool,
// Reset between jobs) and replays the benchmark's materialized corpus, so
// a sweep generates each trace once and allocates simulator state once per
// worker rather than once per job. Job order within a batch follows the
// caller's slice, which groups variants of one benchmark together —
// workers naturally replay a hot corpus.
func (o Options) runJobs(jobs []job) ([]*sim.Result, error) {
	sess := o.Session
	if sess == nil {
		sess = NewSession()
	}
	ctx := o.ctx()
	spec := o.spec()
	keyFor := func(j job) runKey {
		return runKey{bench: j.bench, scale: spec.Scale, seed: spec.Seed, cfg: j.cfg}
	}

	// Claim phase: one entry per distinct fingerprint; entries claimed by
	// this batch become work, entries owned elsewhere are awaited below.
	entries := make(map[runKey]*runEntry, len(jobs))
	var work []workItem
	for _, j := range jobs {
		k := keyFor(j)
		if _, seen := entries[k]; seen {
			continue
		}
		e, claimed := sess.claim(k)
		entries[k] = e
		if claimed {
			work = append(work, workItem{key: k, entry: e, job: j})
		}
	}
	if o.Progress != nil {
		o.Progress(0, len(work))
	}

	var failed atomic.Bool
	if len(work) > 0 {
		workers := o.Parallelism
		if workers > len(work) {
			workers = len(work)
		}
		if workers < 1 { // callers normalize, but never deadlock on a zero
			workers = 1
		}
		queue := make(chan workItem, len(work))
		for _, it := range work {
			queue <- it
		}
		close(queue)
		var done atomic.Int64
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				worker := sess.getSim()
				for it := range queue {
					abort := failed.Load() || ctx.Err() != nil
					o.settle(sess, &worker, it, abort, &failed)
					if h := testJobDone; h != nil {
						h()
					}
					if o.Progress != nil {
						o.Progress(int(done.Add(1)), len(work))
					}
				}
				if worker != nil {
					sess.putSim(worker)
				}
			}()
		}
		wg.Wait()
	}

	claimed := make(map[runKey]bool, len(work))
	for _, it := range work {
		claimed[it.key] = true
	}

	// Collection phase: every job resolves through its fingerprint's entry
	// (deduplicated jobs share one *sim.Result).
	out := make([]*sim.Result, len(jobs))
	var firstErr error
	for i, j := range jobs {
		k := keyFor(j)
		e := entries[k]
		select {
		case <-e.ready:
		case <-ctx.Done():
			// The entry is owned by another batch still simulating; a
			// canceled caller stops waiting for it (the owner will publish
			// the result into the session for everyone else).
			return nil, ctx.Err()
		}
		// An abort from a DIFFERENT batch (its failure, not ours) must not
		// poison this batch: the aborting worker unpinned the key, so
		// re-claim and run it here, serially — this path is rare.
		for errors.Is(e.err, errAborted) && !claimed[k] && ctx.Err() == nil {
			ne, own := sess.claim(k)
			if own {
				worker := sess.getSim()
				o.settle(sess, &worker, workItem{key: k, entry: ne, job: j}, false, &failed)
				if worker != nil {
					sess.putSim(worker)
				}
				claimed[k] = true
			}
			select {
			case <-ne.ready:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			e = ne
			entries[k] = e
		}
		if e.err != nil {
			// Report the root cause, not an abort marker, when both exist.
			if firstErr == nil || (errors.Is(firstErr, errAborted) && !errors.Is(e.err, errAborted)) {
				firstErr = fmt.Errorf("experiments: %s/%s: %w", j.bench, j.variant, e.err)
			}
			continue
		}
		out[i] = e.res
	}
	if firstErr != nil {
		// A batch aborted by cancellation reports the context's error, not
		// the internal abort marker its entries carry.
		if err := ctx.Err(); err != nil && errors.Is(firstErr, errAborted) {
			return nil, err
		}
		// Failed and aborted keys were already unpinned by the workers, so
		// a later attempt retries them instead of replaying the error.
		return nil, firstErr
	}
	return out, nil
}

// settle runs a claimed work item and publishes its entry, or with abort
// marks it skipped. A failure sets failed and unpins the key before
// publishing, so any batch (this one retrying later, or a concurrent one
// waiting on an aborted entry) can re-claim and run it instead of
// inheriting the error. A fresh result is written behind after
// publication: waiters never block on the durable tier's I/O.
func (o Options) settle(sess *Session, worker **sim.Simulator, it workItem, abort bool, failed *atomic.Bool) {
	var fresh bool
	if abort {
		it.entry.err = errAborted
	} else {
		fresh = o.resolve(sess, worker, it.key, it.job, it.entry)
	}
	if it.entry.err != nil {
		failed.Store(true)
		sess.forget(it.key)
	}
	close(it.entry.ready)
	if fresh {
		sess.storeResult(it.key, it.entry.res)
	}
}

// resolve computes the result for a fingerprint this goroutine owns (it
// claimed the entry), consulting the session's durable tier before paying
// for a simulation. It reports whether a simulation actually ran — the
// caller write-behinds fresh results to disk after closing e.ready. The
// simulation is panic-isolated: a panicking workload generator or
// simulator becomes an error on the entry (and the possibly-corrupt
// worker simulator is discarded rather than pooled), so one poisoned job
// fails its batch instead of the process — lacc-serve turns that into a
// 500 for one request while every other request keeps running.
func (o Options) resolve(sess *Session, worker **sim.Simulator, k runKey, j job, e *runEntry) (fresh bool) {
	if res, ok := sess.loadStored(k); ok {
		e.res = res
		return false
	}
	if res, ok := sess.loadPeer(k); ok {
		e.res = res
		return false
	}
	sess.noteSimulated()
	e.res, e.err = o.runOneSafe(worker, j)
	return e.err == nil
}

// runOneSafe runs one simulation with panic recovery, counting it against
// the session and invoking the fault hook first when armed.
func (o Options) runOneSafe(worker **sim.Simulator, j job) (res *sim.Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			// The simulator may have been abandoned mid-run; its state is
			// not trustworthy enough to Reset, let alone to pool.
			*worker = nil
			res, err = nil, fmt.Errorf("panic in %s simulation: %v", j.bench, p)
		}
	}()
	if f := simFault.Load(); f != nil {
		(*f)(j.bench)
	}
	return o.runOne(worker, j)
}

// runOne simulates one job on the worker's simulator, constructing it on
// first use and Reset-reusing it afterwards. The benchmark's trace comes
// from the process-wide corpus cache: generated once, replayed per job.
func (o Options) runOne(worker **sim.Simulator, j job) (*sim.Result, error) {
	w, ok := workloads.ByName(j.bench)
	if !ok {
		return nil, fmt.Errorf("unknown benchmark %q", j.bench)
	}
	src := w.Corpus(o.spec())
	if *worker == nil {
		s, err := sim.New(j.cfg)
		if err != nil {
			return nil, err
		}
		*worker = s
	} else if err := (*worker).Reset(j.cfg); err != nil {
		return nil, err
	}
	return (*worker).Run(src.Streams())
}

// simulate runs one benchmark under one configuration through the job
// scheduler (sharing the session cache and simulator pool).
func (o Options) simulate(j job) (*sim.Result, error) {
	res, err := o.runJobs([]job{j})
	if err != nil {
		return nil, err
	}
	return res[0], nil
}

// labelOf returns the paper's figure label for a benchmark name.
func labelOf(name string) string {
	if w, ok := workloads.ByName(name); ok {
		return w.Label
	}
	return name
}
