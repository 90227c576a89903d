package experiments

import (
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"lacc/internal/workloads"
)

// TestRunJobsBoundsGoroutines is the regression test for the unbounded
// spawn the old scheduler had: every job used to get its own goroutine
// immediately (plus one generator goroutine per core per job), so a
// 294-job sweep peaked at hundreds of live goroutines. The worker pool
// must keep the process at the pre-sweep count plus at most Parallelism
// workers (small slack for runtime helpers), measured mid-sweep from
// inside the workers.
func TestRunJobsBoundsGoroutines(t *testing.T) {
	const parallelism = 3
	o := Options{
		Cores:       8,
		MeshWidth:   4,
		Scale:       0.05,
		Seed:        31,
		Benchmarks:  []string{"radix", "streamcluster", "matmul"},
		Parallelism: parallelism,
	}
	base := runtime.NumGoroutine()
	var maxLive, jobs int64
	testJobDone = func() {
		atomic.AddInt64(&jobs, 1)
		n := int64(runtime.NumGoroutine())
		for {
			cur := atomic.LoadInt64(&maxLive)
			if n <= cur || atomic.CompareAndSwapInt64(&maxLive, cur, n) {
				break
			}
		}
	}
	defer func() { testJobDone = nil }()

	// 3 benches x 6 PCTs = 18 jobs, far above the worker bound.
	if _, err := RunPCTSweep(o, []int{1, 2, 3, 4, 5, 6}); err != nil {
		t.Fatal(err)
	}
	if jobs != 18 {
		t.Fatalf("observed %d jobs, want 18", jobs)
	}
	const slack = 4 // runtime/test helpers that may come and go
	if limit := int64(base + parallelism + slack); maxLive > limit {
		t.Fatalf("peak live goroutines %d exceeds bound %d (base %d + %d workers + %d slack)",
			maxLive, limit, base, parallelism, slack)
	}
}

// TestSessionDedupesAcrossExperiments pins the cross-experiment dedup
// contract: sweeps sharing a session re-simulate only the PCT points they
// don't have in common (the Fig8/Fig10/Fig11 situation), and shared points
// resolve to the very same *sim.Result.
func TestSessionDedupesAcrossExperiments(t *testing.T) {
	sess := NewSession()
	o := Options{
		Cores: 8, MeshWidth: 4, Scale: 0.05, Seed: 37,
		Benchmarks: []string{"radix", "streamcluster"},
		Session:    sess,
	}
	var jobs int64
	testJobDone = func() { atomic.AddInt64(&jobs, 1) }
	defer func() { testJobDone = nil }()

	sw1, err := RunPCTSweep(o, []int{1, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	if jobs != 6 {
		t.Fatalf("first sweep executed %d jobs, want 6", jobs)
	}
	sw2, err := RunPCTSweep(o, []int{1, 4, 8}) // only pct8 is new
	if err != nil {
		t.Fatal(err)
	}
	if jobs != 8 {
		t.Fatalf("after overlapping sweep %d jobs executed, want 8 (2 new)", jobs)
	}
	for _, bench := range o.Benchmarks {
		for _, pct := range []int{1, 4} {
			if sw1.Results[bench][pct] != sw2.Results[bench][pct] {
				t.Errorf("%s/pct%d: overlapping sweeps did not share the memoized result", bench, pct)
			}
		}
	}
	// A sessionless run must NOT reuse the memoized results.
	o.Session = nil
	sw3, err := RunPCTSweep(o, []int{1, 4})
	if err != nil {
		t.Fatal(err)
	}
	if jobs != 12 {
		t.Fatalf("sessionless sweep executed %d total jobs, want 12", jobs)
	}
	// ...but must still agree numerically: reuse may not change results.
	for _, bench := range o.Benchmarks {
		a, b := sw1.Results[bench][4], sw3.Results[bench][4]
		if a.CompletionCycles != b.CompletionCycles || a.LinkFlits != b.LinkFlits ||
			a.Energy.Total() != b.Energy.Total() {
			t.Errorf("%s: memoized and fresh results diverged: %d/%d flits %d/%d",
				bench, a.CompletionCycles, b.CompletionCycles, a.LinkFlits, b.LinkFlits)
		}
	}
}

// TestIntraBatchDedup checks duplicate fingerprints inside one batch run
// once and fan out to every variant.
func TestIntraBatchDedup(t *testing.T) {
	o := testOptions("radix").normalize()
	var jobs int64
	testJobDone = func() { atomic.AddInt64(&jobs, 1) }
	defer func() { testJobDone = nil }()
	cfg := o.baseConfig()
	raw, err := o.runJobs([]job{
		{bench: "radix", variant: "a", cfg: cfg},
		{bench: "radix", variant: "b", cfg: cfg},
	})
	if err != nil {
		t.Fatal(err)
	}
	if jobs != 1 {
		t.Fatalf("duplicate jobs executed %d simulations, want 1", jobs)
	}
	if raw[0] != raw[1] {
		t.Fatal("duplicate variants did not share one result")
	}
}

// TestSweepGeneratesEachTraceOnce is the acceptance-criteria counter
// check: a multi-experiment session generates each (bench, spec) trace
// exactly once, however many configuration variants replay it.
func TestSweepGeneratesEachTraceOnce(t *testing.T) {
	sess := NewSession()
	o := Options{
		Cores: 8, MeshWidth: 4, Scale: 0.05, Seed: 4242, // unique spec => cold corpus cache
		Benchmarks: []string{"radix", "streamcluster", "matmul"},
		Session:    sess,
	}
	before := workloads.CorpusBuilds()
	if _, err := RunPCTSweep(o, []int{1, 2, 4}); err != nil {
		t.Fatal(err)
	}
	if _, err := RunPCTSweep(o, []int{1, 4, 8}); err != nil {
		t.Fatal(err)
	}
	if _, err := Fig14(o); err != nil {
		t.Fatal(err)
	}
	if got := workloads.CorpusBuilds() - before; got != uint64(len(o.Benchmarks)) {
		t.Fatalf("three experiments built %d traces, want exactly %d (one per benchmark)",
			got, len(o.Benchmarks))
	}
}

// TestConcurrentBatchSurvivesForeignAbort checks that one batch's failure
// does not poison a concurrent healthy batch sharing the session: the
// healthy batch re-claims keys the failing batch aborted and completes.
func TestConcurrentBatchSurvivesForeignAbort(t *testing.T) {
	sess := NewSession()
	good := Options{
		Cores: 8, MeshWidth: 4, Scale: 0.05, Seed: 53,
		Benchmarks: []string{"radix", "streamcluster"},
		Session:    sess, Parallelism: 2,
	}
	bad := good
	bad.Benchmarks = []string{"radix", "no-such-bench", "streamcluster"}
	// Interleave failing and healthy batches over the same PCT points many
	// times; whichever claims a shared key first, the healthy runs must
	// always succeed.
	for i := 0; i < 10; i++ {
		var wg sync.WaitGroup
		wg.Add(2)
		var goodErr error
		go func() {
			defer wg.Done()
			_, goodErr = RunPCTSweep(good, []int{1, 4})
		}()
		go func() {
			defer wg.Done()
			_, _ = Fig14(bad.normalize()) // fails on the unknown benchmark
		}()
		wg.Wait()
		if goodErr != nil {
			t.Fatalf("round %d: healthy batch failed: %v", i, goodErr)
		}
	}
}

// TestAbortedBatchRetries checks failed batches don't poison the session:
// after an error the entries are forgotten, and nothing leaks into later
// successful runs.
func TestAbortedBatchRetries(t *testing.T) {
	sess := NewSession()
	o := testOptions("radix").normalize()
	o.Session = sess
	cfg := o.baseConfig()
	_, err := o.runJobs([]job{
		{bench: "no-such-bench", variant: "x", cfg: cfg},
		{bench: "radix", variant: "ok", cfg: cfg},
	})
	if err == nil || !strings.Contains(err.Error(), "unknown benchmark") {
		t.Fatalf("err = %v, want unknown benchmark", err)
	}
	// The failing key must have been forgotten; a corrected batch runs.
	raw, err := o.runJobs([]job{{bench: "radix", variant: "ok", cfg: cfg}})
	if err != nil {
		t.Fatalf("retry after failure: %v", err)
	}
	if raw[0] == nil {
		t.Fatal("retry returned no result")
	}
}
