package trace

import (
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"lacc/internal/mem"
)

// randomSeqs returns deterministic pseudo-random per-core sequences long
// enough to cross many chunk and arena-block boundaries. They are written
// out directly, without an Emitter, so they are what randomGens is known
// to emit.
func randomSeqs(cores, ops int, seed int64) [][]mem.Access {
	seqs := make([][]mem.Access, cores)
	for c := range seqs {
		rng := rand.New(rand.NewSource(seed + int64(c)))
		for i := 0; i < ops; i++ {
			a := mem.Addr(rng.Intn(1<<20) * 8)
			switch rng.Intn(6) {
			case 0:
				gap := uint32(rng.Intn(10))
				seqs[c] = append(seqs[c], mem.Access{Kind: mem.Write, Addr: a, Gap: gap})
			case 1:
				seqs[c] = append(seqs[c],
					mem.Access{Kind: mem.Lock, Addr: mem.Addr(1 + rng.Intn(3))},
					mem.Access{Kind: mem.Read, Addr: a},
					mem.Access{Kind: mem.Unlock, Addr: mem.Addr(1 + rng.Intn(3))})
			default:
				seqs[c] = append(seqs[c], mem.Access{Kind: mem.Read, Addr: a})
			}
		}
	}
	return seqs
}

// randomGens returns generators that emit randomSeqs' sequences through
// the Emitter API.
func randomGens(cores, ops int, seed int64) []GenFunc {
	seqs := randomSeqs(cores, ops, seed)
	gens := make([]GenFunc, cores)
	for c := range gens {
		seq := seqs[c]
		gens[c] = func(e *Emitter) {
			for _, a := range seq {
				e.Compute(int(a.Gap))
				switch a.Kind {
				case mem.Read:
					e.Read(a.Addr)
				case mem.Write:
					e.Write(a.Addr)
				case mem.Lock:
					e.Lock(uint64(a.Addr))
				case mem.Unlock:
					e.Unlock(uint64(a.Addr))
				}
			}
		}
	}
	return gens
}

// drain collects a stream's full sequence via Next.
func drain(s Stream) []mem.Access {
	var out []mem.Access
	for {
		a, ok := s.Next()
		if !ok {
			break
		}
		out = append(out, a)
	}
	s.Close()
	return out
}

// drainChunks collects a ChunkStream's full sequence via NextChunk.
func drainChunks(s Stream) []mem.Access {
	cs := s.(ChunkStream)
	var out []mem.Access
	for {
		c, ok := cs.NextChunk()
		if !ok {
			break
		}
		out = append(out, c...)
	}
	s.Close()
	return out
}

func equalSeqs(t *testing.T, name string, got, want []mem.Access) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d accesses, want %d", name, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: access %d = %+v, want %+v", name, i, got[i], want[i])
		}
	}
}

// TestCorpusMatchesLiveStreams pins delivery at the trace layer: for
// seeded generators, in-memory replay (through both Next and NextChunk,
// and again on a second view) and spilled replay must deliver exactly the
// sequence each generator is known to emit.
func TestCorpusMatchesLiveStreams(t *testing.T) {
	const cores, ops = 4, 9000 // >chunkSize ops per core, crosses blocks
	want := randomSeqs(cores, ops, 42)
	gens := randomGens(cores, ops, 42)
	corpus := BuildCorpus(gens)
	if corpus.Cores() != cores {
		t.Fatalf("Cores() = %d, want %d", corpus.Cores(), cores)
	}
	sc, err := BuildSpilledCorpus(gens, filepath.Join(t.TempDir(), "spill.lacctrc"))
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Remove()
	var total uint64
	for c := 0; c < cores; c++ {
		equalSeqs(t, "corpus", drain(corpus.Stream(c)), want[c])
		equalSeqs(t, "corpus chunks", drainChunks(corpus.Stream(c)), want[c])
		// Replay again: views must be independent cursors.
		equalSeqs(t, "second replay", drain(corpus.Stream(c)), want[c])
		equalSeqs(t, "spilled", drain(sc.Stream(c)), want[c])
		equalSeqs(t, "spilled chunks", drainChunks(sc.Stream(c)), want[c])
		if corpus.Accesses(c) != uint64(len(want[c])) || sc.Accesses(c) != uint64(len(want[c])) {
			t.Fatalf("Accesses(%d) = %d in memory, %d spilled, want %d",
				c, corpus.Accesses(c), sc.Accesses(c), len(want[c]))
		}
		total += uint64(len(want[c]))
	}
	if corpus.Total() != total || sc.Total() != total {
		t.Fatalf("Total() = %d in memory, %d spilled, want %d", corpus.Total(), sc.Total(), total)
	}
}

// TestCorpusSegmentsCoalesce pins the arena layout property: a core's
// sequence occupies at most one segment per arena block (consecutive
// flushes coalesce), so replay touches long contiguous runs.
func TestCorpusSegmentsCoalesce(t *testing.T) {
	const ops = 3 * corpusBlockSize / 2
	gens := []GenFunc{func(e *Emitter) {
		for i := 0; i < ops; i++ {
			e.Read(mem.Addr(i * 8))
		}
	}}
	c := BuildCorpus(gens)
	maxSegs := int(c.Total()/corpusBlockSize) + 1
	if got := len(c.seqs[0]); got > maxSegs {
		t.Fatalf("core 0 fragmented into %d segments, want <= %d", got, maxSegs)
	}
}

func TestCorpusEmptyStream(t *testing.T) {
	c := BuildCorpus([]GenFunc{func(e *Emitter) {}})
	if a, ok := c.Stream(0).Next(); ok {
		t.Fatalf("empty corpus yielded %+v", a)
	}
	if _, ok := c.Stream(0).(ChunkStream).NextChunk(); ok {
		t.Fatal("empty corpus yielded a chunk")
	}
}

// TestSpilledCorpusRoundTrip checks the spill-to-disk path delivers
// bit-identical sequences via independent per-core decoders over the
// shared descriptor, agrees with the standard trace format, and releases
// the descriptor once removed and fully replayed.
func TestSpilledCorpusRoundTrip(t *testing.T) {
	const cores, ops = 3, 6000
	gens := randomGens(cores, ops, 7)
	corpus := BuildCorpus(gens)
	path := filepath.Join(t.TempDir(), "spill.lacctrc")
	sc, err := BuildSpilledCorpus(gens, path)
	if err != nil {
		t.Fatal(err)
	}
	if sc.Cores() != cores || sc.Total() != corpus.Total() {
		t.Fatalf("spilled shape %d/%d, want %d/%d", sc.Cores(), sc.Total(), cores, corpus.Total())
	}
	// Consume out of core order and interleaved, as the simulator does.
	streams := sc.Streams()
	for c := cores - 1; c >= 0; c-- {
		equalSeqs(t, "spilled vs corpus", drainChunks(streams[c]), drain(corpus.Stream(c)))
		if sc.Accesses(c) != corpus.Accesses(c) {
			t.Fatalf("spilled Accesses(%d) = %d, want %d", c, sc.Accesses(c), corpus.Accesses(c))
		}
	}
	// The spill file is the standard trace format: ReadFile must agree,
	// and CorpusFromSlices must rebuild an identical in-memory corpus.
	fh, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	f, err := ReadFile(fh)
	fh.Close()
	if err != nil {
		t.Fatal(err)
	}
	rebuilt := CorpusFromSlices(f)
	for c := 0; c < cores; c++ {
		equalSeqs(t, "ReadFile vs corpus", f[c], drain(corpus.Stream(c)))
		equalSeqs(t, "CorpusFromSlices vs corpus", drain(rebuilt.Stream(c)), drain(corpus.Stream(c)))
	}

	// Removal with a stream in flight: the reader keeps working (POSIX
	// unlink semantics on the shared descriptor), and the descriptor is
	// released when the last stream closes.
	inFlight := sc.Stream(0)
	if err := sc.Remove(); err != nil {
		t.Fatal(err)
	}
	equalSeqs(t, "replay after Remove", drain(inFlight), drain(corpus.Stream(0)))
	inFlight.Close() // Close is idempotent: the reference is dropped once
	sc.mu.Lock()
	leaked := sc.f != nil || sc.refs != 0
	sc.mu.Unlock()
	if leaked {
		t.Fatal("shared descriptor not released after Remove + Close")
	}
}
