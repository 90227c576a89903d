package workloads

import (
	"path/filepath"
	"sync"
	"testing"

	"lacc/internal/trace"
)

// TestCorpusReplayMatchesLiveStreams pins, for every registered benchmark,
// that the two replay paths deliver the same accesses core by core: the
// in-memory corpus that sweeps and the public API replay, and the spilled
// build (BuildSpilledCorpus) that large-scale sweeps and lacc-trace record
// write to disk.
func TestCorpusReplayMatchesLiveStreams(t *testing.T) {
	spec := Spec{Cores: 4, Scale: 0.05, Seed: 3}
	for _, w := range All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			corpus, ok := w.Corpus(spec).(*trace.Corpus)
			if !ok {
				t.Fatalf("corpus not in memory: %T", w.Corpus(spec))
			}
			if corpus.Cores() != spec.Cores {
				t.Fatalf("corpus has %d cores, want %d", corpus.Cores(), spec.Cores)
			}
			sc, err := trace.BuildSpilledCorpus(w.Build(spec), filepath.Join(t.TempDir(), w.Name+".lacctrc"))
			if err != nil {
				t.Fatal(err)
			}
			defer sc.Remove()
			inMem, spilled := corpus.Streams(), sc.Streams()
			for c := 0; c < spec.Cores; c++ {
				want := drain(t, inMem[c])
				got := drain(t, spilled[c])
				if len(got) != len(want) {
					t.Fatalf("core %d: spilled %d accesses, in memory %d", c, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("core %d access %d: spilled %+v, in memory %+v", c, i, got[i], want[i])
					}
				}
			}
		})
	}
}

// TestCorpusBuiltExactlyOnce pins the cache contract: concurrent and
// repeated Corpus calls for one (name, cores, scale, seed) run the
// generators exactly once, and a different key builds separately.
func TestCorpusBuiltExactlyOnce(t *testing.T) {
	w := MustByName("streamcluster")
	spec := Spec{Cores: 4, Scale: 0.04, Seed: 991} // unique key for this test
	before := CorpusBuilds()

	var wg sync.WaitGroup
	srcs := make([]trace.Source, 8)
	for i := range srcs {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			srcs[i] = w.Corpus(spec)
		}()
	}
	wg.Wait()
	if got := CorpusBuilds() - before; got != 1 {
		t.Fatalf("8 concurrent Corpus calls performed %d builds, want 1", got)
	}
	for i := 1; i < len(srcs); i++ {
		if srcs[i] != srcs[0] {
			t.Fatalf("Corpus call %d returned a different source", i)
		}
	}
	if w.Corpus(spec) != srcs[0] {
		t.Fatal("repeat Corpus call rebuilt the trace")
	}
	other := spec
	other.Seed++
	if w.Corpus(other) == srcs[0] {
		t.Fatal("different seed shared a corpus")
	}
	if got := CorpusBuilds() - before; got != 2 {
		t.Fatalf("two distinct keys performed %d builds, want 2", got)
	}
}

// TestCorpusSpillPolicy checks the large-trace spill path: above the
// threshold the cache hands out an on-disk source whose replay matches
// Streams; below it the corpus stays in memory.
func TestCorpusSpillPolicy(t *testing.T) {
	dir := t.TempDir()
	if err := SetCorpusSpill(dir, 1); err != nil { // spill everything
		t.Fatal(err)
	}
	defer SetCorpusSpill("", 0)

	w := MustByName("matmul")
	spec := Spec{Cores: 4, Scale: 0.03, Seed: 877} // unique key
	src := w.Corpus(spec)
	sc, ok := src.(*trace.SpilledCorpus)
	if !ok {
		t.Fatalf("corpus not spilled: %T", src)
	}
	direct := w.Streams(spec)
	replay := sc.Streams()
	for c := 0; c < spec.Cores; c++ {
		want := drain(t, direct[c])
		got := drain(t, replay[c])
		if len(got) != len(want) {
			t.Fatalf("core %d: spilled %d accesses, Streams %d", c, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("core %d access %d: spilled %+v, Streams %+v", c, i, got[i], want[i])
			}
		}
	}

	SetCorpusSpill(dir, 1<<40) // threshold never reached
	spec.Seed++
	if _, spilled := w.Corpus(spec).(*trace.SpilledCorpus); spilled {
		t.Fatal("small corpus spilled below the threshold")
	}
}

// TestFlushDuringBuildKeepsSpillFile pins the flush-vs-inflight contract:
// a FlushCorpora racing an in-flight spilled build must not delete the
// file out from under the builder — the returned source must still
// replay. (Deterministically exercised by flushing between the claim and
// the build via a second goroutine hammering FlushCorpora.)
func TestFlushDuringBuildKeepsSpillFile(t *testing.T) {
	dir := t.TempDir()
	SetCorpusSpill(dir, 1)
	defer SetCorpusSpill("", 0)

	w := MustByName("susan")
	stop := make(chan struct{})
	donestop := make(chan struct{})
	go func() {
		defer close(donestop)
		for {
			select {
			case <-stop:
				return
			default:
				FlushCorpora()
			}
		}
	}()
	for i := 0; i < 20; i++ {
		spec := Spec{Cores: 2, Scale: 0.02, Seed: 5000 + uint64(i)}
		src := w.Corpus(spec)
		// Whatever the race outcome, the handle must replay fully.
		for _, s := range src.Streams() {
			for {
				if _, ok := s.Next(); !ok {
					break
				}
			}
			s.Close()
		}
	}
	close(stop)
	<-donestop
}

// TestFlushCorpora checks that flushing forces a rebuild.
func TestFlushCorpora(t *testing.T) {
	w := MustByName("dfs")
	spec := Spec{Cores: 4, Scale: 0.05, Seed: 1234} // unique key
	first := w.Corpus(spec)
	before := CorpusBuilds()
	FlushCorpora()
	second := w.Corpus(spec)
	if second == first {
		t.Fatal("flush did not drop the cached corpus")
	}
	if got := CorpusBuilds() - before; got != 1 {
		t.Fatalf("rebuild after flush performed %d builds, want 1", got)
	}
}
