package experiments

import (
	"sync"
	"sync/atomic"
	"testing"
)

// TestParallelRunnersStress drives the bounded-parallelism job runner with
// Parallelism > 1 through the two experiments the benchmark-regression
// harness tracks, including two experiments racing each other. Its real
// value is under the race detector (CI runs this package with -race): every
// simulation mutates its own Simulator, and the only shared state is the
// outcome channel, which this test forces into genuine concurrency.
func TestParallelRunnersStress(t *testing.T) {
	o := Options{
		Cores:       8,
		MeshWidth:   4,
		Scale:       0.05,
		Seed:        11,
		Benchmarks:  []string{"radix", "streamcluster"},
		Parallelism: 4,
	}

	var wg sync.WaitGroup
	wg.Add(2)
	var sweepErr, ackErr error
	var sweep *PCTSweep
	var ack *AckwiseComparisonResult
	go func() {
		defer wg.Done()
		sweep, sweepErr = RunPCTSweep(o, []int{1, 4})
	}()
	go func() {
		defer wg.Done()
		ack, ackErr = AckwiseComparison(o, nil)
	}()
	wg.Wait()

	if sweepErr != nil {
		t.Fatalf("RunPCTSweep: %v", sweepErr)
	}
	if ackErr != nil {
		t.Fatalf("AckwiseComparison: %v", ackErr)
	}
	if f := sweep.Fig11(); len(f.Points) != 2 {
		t.Fatalf("sweep returned %d PCT points, want 2", len(f.Points))
	}
	if len(ack.Pointers) != 2 {
		t.Fatalf("ackwise comparison returned %d pointer counts, want 2", len(ack.Pointers))
	}

	// Parallel execution must not perturb results: rerun serially and
	// compare the geomean completion ratios.
	serial := o
	serial.Parallelism = 1
	ack2, err := AckwiseComparison(serial, nil)
	if err != nil {
		t.Fatalf("serial AckwiseComparison: %v", err)
	}
	for _, p := range ack.Pointers {
		if ack.Completion[p] != ack2.Completion[p] {
			t.Errorf("parallelism changed results for p=%d: %v vs %v",
				p, ack.Completion[p], ack2.Completion[p])
		}
	}
}

// TestProgressCallbackLifetime pins the Options.Progress contract under
// real concurrency: callbacks arrive from worker goroutines while the
// batch runs (Parallelism 4, each simulation on the one sequential engine:
// shards=0), but never after runJobs returns, and every
// (done, total) pair is coherent. CI runs this package with -race, which
// is where the lifetime guarantee actually gets exercised.
func TestProgressCallbackLifetime(t *testing.T) {
	t.Run("shards=0", func(t *testing.T) {
		var returned atomic.Bool
		var calls atomic.Int64
		o := Options{
			Cores:       8,
			MeshWidth:   4,
			Scale:       0.05,
			Seed:        13,
			Benchmarks:  []string{"radix", "matmul"},
			Parallelism: 4,
			Progress: func(done, total int) {
				if returned.Load() {
					t.Error("progress callback delivered after the experiment returned")
				}
				if done < 0 || done > total {
					t.Errorf("incoherent progress (%d, %d)", done, total)
				}
				calls.Add(1)
			},
		}
		if _, err := RunPCTSweep(o, []int{1, 4}); err != nil {
			t.Fatal(err)
		}
		returned.Store(true)
		if calls.Load() == 0 {
			t.Error("no progress callbacks observed")
		}
	})
}
