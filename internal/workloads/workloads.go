// Package workloads implements the 21 parallel benchmarks of the paper's
// Table 2 as deterministic trace-generating kernels. Each kernel is a real
// algorithm written against the trace.Emitter API: it allocates data
// structures in the simulated address space, runs the computation in SPMD
// style (one generator per core) and emits the resulting reads, writes,
// compute gaps and synchronization operations.
//
// The paper runs SPLASH-2, PARSEC, Parallel-MI-Bench, two UHPC graph
// benchmarks and three hand-written kernels on the Graphite simulator. The
// originals are pthread binaries; here each benchmark is re-implemented so
// that it reproduces the access and sharing pattern the coherence protocol
// reacts to: streaming vs reuse (spatio-temporal locality per cache line),
// private vs shared data, degree of sharing, invalidation ping-pong,
// migratory objects and synchronization structure. Problem sizes are scaled
// down from Table 2 so a full PCT sweep runs on a laptop; the Scale knob
// restores larger sizes.
//
// All kernels are deterministic: given the same Spec they emit exactly the
// same per-core streams, so simulations are reproducible bit-for-bit.
package workloads

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"

	"lacc/internal/trace"
)

// Spec parameterizes a workload build.
type Spec struct {
	// Cores is the number of generator streams to build (one per core).
	Cores int
	// Scale multiplies the default (reduced) problem size; 1.0 is the
	// default, larger values approach the paper's Table 2 sizes.
	Scale float64
	// Seed perturbs the deterministic pseudo-random choices of kernels that
	// use randomness (e.g. canneal's swap selection). Zero is a valid seed.
	Seed uint64
}

// normalize applies defaults.
func (s Spec) normalize() Spec {
	if s.Cores <= 0 {
		s.Cores = 64
	}
	if s.Scale <= 0 {
		s.Scale = 1
	}
	return s
}

// scaled returns max(lo, round(base*Scale)).
func (s Spec) scaled(base, lo int) int {
	n := int(float64(base)*s.Scale + 0.5)
	if n < lo {
		n = lo
	}
	return n
}

// Workload is one registered benchmark.
type Workload struct {
	// Name is the canonical lower-case identifier (e.g. "streamcluster").
	Name string
	// Label is the display label used in the paper's figures
	// (e.g. "STREAMCLUS.").
	Label string
	// Suite is the benchmark suite of Table 2.
	Suite string
	// PaperSize is the problem size the paper used (Table 2), for reference.
	PaperSize string
	// DefaultSize describes the reduced problem size at Scale=1.
	DefaultSize string

	build func(Spec) []trace.GenFunc
}

// Build returns one trace generator per core for the given spec.
func (w Workload) Build(s Spec) []trace.GenFunc {
	return w.build(s.normalize())
}

// Streams materializes the workload's trace at s and returns one replay
// stream per core. Unlike Corpus, every call runs the generators again:
// nothing is cached and CorpusBuilds does not count it.
func (w Workload) Streams(s Spec) []trace.Stream {
	return trace.BuildCorpus(w.Build(s)).Streams()
}

// corpusKey identifies one materialized trace: a workload's output is a
// pure function of (name, cores, scale, seed).
type corpusKey struct {
	name  string
	cores int
	scale float64
	seed  uint64
}

// corpusEntry is one cache slot. The once gate makes concurrent requesters
// of the same key share a single build; src is valid once once completes.
// done is closed when src is final, so FlushCorpora can distinguish
// completed builds (whose spill files it owns) from in-flight ones (whose
// handles the builder's caller is about to use) without blocking them.
type corpusEntry struct {
	once sync.Once
	done chan struct{}
	src  trace.Source
}

// corpusCache memoizes materialized traces per process, so a sweep
// generates each (workload, spec) trace exactly once no matter how many
// configuration variants replay it.
var corpusCache = struct {
	sync.Mutex
	m map[corpusKey]*corpusEntry
}{m: map[corpusKey]*corpusEntry{}}

// corpusBuilds counts generator executions through the corpus path — the
// experiment layer's exactly-once guarantee is asserted against it.
var corpusBuilds atomic.Uint64

// CorpusBuilds returns the number of corpus builds this process performed.
func CorpusBuilds() uint64 { return corpusBuilds.Load() }

// spillPolicy is the optional spill-to-disk configuration (see
// SetCorpusSpill).
var spillPolicy struct {
	sync.Mutex
	dir string
	min uint64
}

// spillSeq makes every spill filename unique within the process.
var spillSeq atomic.Uint64

// SetCorpusSpill enables spilling built corpora whose total access count
// reaches minAccesses to files under dir (in the binary trace format):
// large-Scale sweeps then replay from disk with one chunk buffer per core
// instead of the whole trace resident. With spilling active, builds
// stream straight to disk — peak build memory is one core's sequence, not
// the whole trace — and only corpora that turn out smaller than the
// threshold are re-materialized in memory. An empty dir disables spilling
// (the default). Affects corpora built after the call. The directory is
// created if absent; a directory that cannot be created or written falls
// back to in-memory builds, so enable spilling only with a usable dir (the
// returned error reports creation failures).
func SetCorpusSpill(dir string, minAccesses uint64) error {
	var err error
	if dir != "" {
		err = os.MkdirAll(dir, 0o755)
	}
	spillPolicy.Lock()
	spillPolicy.dir, spillPolicy.min = dir, minAccesses
	spillPolicy.Unlock()
	return err
}

// Corpus returns the materialized trace for this workload at s, building
// it at most once per process per (name, cores, scale, seed). The result
// is safe for concurrent replay.
func (w Workload) Corpus(s Spec) trace.Source {
	s = s.normalize()
	key := corpusKey{name: w.Name, cores: s.Cores, scale: s.Scale, seed: s.Seed}
	corpusCache.Lock()
	e := corpusCache.m[key]
	if e == nil {
		e = &corpusEntry{done: make(chan struct{})}
		corpusCache.m[key] = e
	}
	corpusCache.Unlock()
	e.once.Do(func() {
		defer close(e.done)
		corpusBuilds.Add(1)
		spillPolicy.Lock()
		dir, min := spillPolicy.dir, spillPolicy.min
		spillPolicy.Unlock()
		if dir == "" {
			e.src = trace.BuildCorpus(w.Build(s))
			return
		}
		// Spilling enabled: stream the build to disk so the whole trace is
		// never resident — this is the only way a trace larger than memory
		// can be built at all. The filename carries the pid (concurrent
		// processes sharing a spill dir never truncate each other's files)
		// and a build sequence number (a rebuild after FlushCorpora never
		// truncates a flushed-but-still-replaying predecessor).
		name := fmt.Sprintf("%s-c%d-s%g-r%d-p%d-n%d.lacctrc",
			w.Name, s.Cores, s.Scale, s.Seed, os.Getpid(), spillSeq.Add(1))
		sc, err := trace.BuildSpilledCorpus(w.Build(s), filepath.Join(dir, name))
		if err != nil {
			// Spill failure (unwritable dir, full disk): correctness first,
			// fall back to the in-memory build.
			e.src = trace.BuildCorpus(w.Build(s))
			return
		}
		if sc.Total() < min {
			// Below the threshold: read the just-written file back into an
			// arena (cheaper than re-running the generators) for RAM-speed
			// replay, then drop the file.
			e.src = sc
			if f, err := os.Open(sc.Path()); err == nil {
				seqs, rerr := trace.ReadFile(f)
				f.Close()
				if rerr == nil {
					e.src = trace.CorpusFromSlices(seqs)
					sc.Remove()
				}
			}
			return
		}
		e.src = sc
	})
	return e.src
}

// FlushCorpora drops every cached corpus, deleting the spill files of
// completed builds, so long-lived processes can bound trace memory
// between experiment batches. A build in flight keeps its file — its
// caller is about to replay it — and merely becomes untracked: the file
// lives until the process exits rather than being yanked mid-use.
func FlushCorpora() {
	corpusCache.Lock()
	old := corpusCache.m
	corpusCache.m = map[corpusKey]*corpusEntry{}
	corpusCache.Unlock()
	for _, e := range old {
		select {
		case <-e.done:
			if sc, ok := e.src.(*trace.SpilledCorpus); ok {
				sc.Remove()
			}
		default:
			// In flight (or never requested): leave it to its builder.
		}
	}
}

// registry holds all workloads keyed by Name.
var registry = map[string]Workload{}

func register(w Workload) {
	if _, dup := registry[w.Name]; dup {
		panic(fmt.Sprintf("workloads: duplicate registration of %q", w.Name))
	}
	registry[w.Name] = w
}

// All returns every registered workload in the paper's Table 2 order
// (suite by suite, then the order within the suite).
func All() []Workload {
	out := make([]Workload, 0, len(registry))
	for _, name := range Names() {
		out = append(out, registry[name])
	}
	return out
}

// tableOrder is the paper's Table 2 ordering.
var tableOrder = []string{
	// SPLASH-2
	"radix", "lu-nc", "barnes", "ocean-nc", "water-sp", "raytrace",
	// PARSEC
	"blackscholes", "streamcluster", "dedup", "bodytrack", "fluidanimate", "canneal",
	// Parallel MI Bench
	"dijkstra-ss", "dijkstra-ap", "patricia", "susan",
	// UHPC
	"concomp", "community",
	// Others
	"tsp", "dfs", "matmul",
}

// Names returns the canonical workload names in Table 2 order, followed by
// any extra registrations in lexical order.
func Names() []string {
	seen := make(map[string]bool, len(registry))
	out := make([]string, 0, len(registry))
	for _, n := range tableOrder {
		if _, ok := registry[n]; ok {
			out = append(out, n)
			seen[n] = true
		}
	}
	var extra []string
	for n := range registry {
		if !seen[n] {
			extra = append(extra, n)
		}
	}
	sort.Strings(extra)
	return append(out, extra...)
}

// ByName looks a workload up by its canonical name.
func ByName(name string) (Workload, bool) {
	w, ok := registry[name]
	return w, ok
}

// MustByName is ByName but panics on unknown names (for internal tables).
func MustByName(name string) Workload {
	w, ok := registry[name]
	if !ok {
		panic(fmt.Sprintf("workloads: unknown workload %q", name))
	}
	return w
}
