package trace

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"sync"

	"lacc/internal/mem"
)

// A Corpus is a fully materialized set of per-core access sequences: each
// generator runs exactly once, synchronously on the calling goroutine, and
// its output is packed into shared arena blocks. Replay hands out cheap
// ChunkStream views over the arena, with no per-access dynamic dispatch,
// so one generation pays for arbitrarily many simulations of the same
// (workload, spec).
//
// A Corpus is immutable after BuildCorpus returns and safe for concurrent
// replay: views carry their own cursors and never write the arena.

// corpusBlockSize is the arena block granularity in accesses (16 B each,
// pinned by mem's TestAccessSize, so 1 MiB blocks): big enough that
// per-core sequences span few segments, small enough that a tiny workload
// doesn't hold a huge block.
const corpusBlockSize = 1 << 16

// Source is a replayable trace: anything that can hand out one fresh
// stream per core. Corpus (in-memory) and SpilledCorpus (on-disk) both
// implement it; the experiment layer replays Sources without caring where
// the accesses live.
type Source interface {
	// Cores returns the number of per-core streams.
	Cores() int
	// Streams returns fresh replay views, one per core, in core order.
	// Each call returns independent cursors over the same trace.
	Streams() []Stream
}

// Corpus holds materialized per-core access sequences in arena storage.
type Corpus struct {
	// seqs lists, per core, the contiguous arena segments that make up the
	// core's sequence in emission order.
	seqs   [][][]mem.Access
	counts []uint64
	total  uint64

	// Build state (nil once BuildCorpus returns): the active arena block,
	// the start of the current core's unsealed run within it, and the core
	// being built.
	block    []mem.Access
	runStart int
	cur      int
}

// BuildCorpus runs each generator to completion, one after another on the
// calling goroutine, and returns the materialized corpus. A generator's
// panic (a workload bug) propagates to the caller.
func BuildCorpus(gens []GenFunc) *Corpus {
	c := &Corpus{
		seqs:   make([][][]mem.Access, len(gens)),
		counts: make([]uint64, len(gens)),
	}
	bufp := chunkPool.Get().(*[]mem.Access)
	e := &Emitter{chunk: (*bufp)[:0], sink: c}
	for i, g := range gens {
		c.cur = i
		e.gap = 0
		g(e)
		e.flush()
		c.sealRun()
	}
	*bufp = e.chunk[:0]
	chunkPool.Put(bufp)
	c.block, c.runStart = nil, 0
	return c
}

// CorpusFromSlices packs already-materialized per-core access slices into
// a corpus (arena storage, replayable views). Used to re-materialize a
// spilled trace that turned out small enough for RAM-speed replay without
// re-running its generators, and by tests.
func CorpusFromSlices(seqs [][]mem.Access) *Corpus {
	c := &Corpus{
		seqs:   make([][][]mem.Access, len(seqs)),
		counts: make([]uint64, len(seqs)),
	}
	for i, accs := range seqs {
		c.cur = i
		c.append(accs)
		c.sealRun()
	}
	c.block, c.runStart = nil, 0
	return c
}

// flush implements emitterSink: the chunk is copied into arena storage.
func (c *Corpus) flush(chunk []mem.Access) { c.append(chunk) }

// append copies accs into the arena, sealing segments at block boundaries.
func (c *Corpus) append(accs []mem.Access) {
	c.counts[c.cur] += uint64(len(accs))
	c.total += uint64(len(accs))
	for len(accs) > 0 {
		if len(c.block) == cap(c.block) { // full (or nil before first block)
			c.sealRun()
			c.block = make([]mem.Access, 0, corpusBlockSize)
			c.runStart = 0
		}
		n := cap(c.block) - len(c.block)
		if n > len(accs) {
			n = len(accs)
		}
		c.block = append(c.block, accs[:n]...)
		accs = accs[n:]
	}
}

// sealRun closes the current core's pending segment of the active block,
// so consecutive flushes coalesce into one segment per block.
func (c *Corpus) sealRun() {
	if len(c.block) == c.runStart {
		return
	}
	seg := c.block[c.runStart:len(c.block):len(c.block)]
	c.seqs[c.cur] = append(c.seqs[c.cur], seg)
	c.runStart = len(c.block)
}

// Cores implements Source.
func (c *Corpus) Cores() int { return len(c.seqs) }

// Accesses returns core's sequence length.
func (c *Corpus) Accesses(core int) uint64 { return c.counts[core] }

// Total returns the corpus size in accesses across all cores.
func (c *Corpus) Total() uint64 { return c.total }

// Stream returns a fresh replay view of core's sequence.
func (c *Corpus) Stream(core int) Stream {
	return &corpusStream{segs: c.seqs[core]}
}

// Streams implements Source.
func (c *Corpus) Streams() []Stream {
	out := make([]Stream, len(c.seqs))
	for i := range out {
		out[i] = c.Stream(i)
	}
	return out
}

// corpusStream replays one core's arena segments. It implements
// ChunkStream so the simulator consumes whole segments with a slice index.
type corpusStream struct {
	segs [][]mem.Access
	si   int
	idx  int
}

func (s *corpusStream) Next() (mem.Access, bool) {
	for s.si < len(s.segs) {
		seg := s.segs[s.si]
		if s.idx < len(seg) {
			a := seg[s.idx]
			s.idx++
			return a, true
		}
		s.si++
		s.idx = 0
	}
	return mem.Access{}, false
}

// NextChunk hands over the undelivered remainder of the current segment.
func (s *corpusStream) NextChunk() ([]mem.Access, bool) {
	for s.si < len(s.segs) {
		seg := s.segs[s.si]
		if s.idx < len(seg) {
			out := seg[s.idx:]
			s.si++
			s.idx = 0
			return out, true
		}
		s.si++
		s.idx = 0
	}
	return nil, false
}

func (s *corpusStream) Close() {}

// SpilledCorpus is a corpus written to disk in the binary trace format,
// with a per-core offset index so each core's stream decodes independently
// and incrementally — replay memory is one chunk buffer per core instead
// of the whole trace. Built with BuildSpilledCorpus (streaming, peak
// memory of one core's sequence — the path for traces that don't fit in
// RAM).
//
// All replay streams share one file descriptor (io.SectionReader per
// stream), so a machine-wide sweep costs one fd per spilled corpus, not
// one per core per concurrent run.
type SpilledCorpus struct {
	path    string
	counts  []uint64
	offsets []int64 // byte offset of each core's stream section
	total   uint64

	mu      sync.Mutex
	f       *os.File // lazily opened shared descriptor
	refs    int      // live streams reading through f
	removed bool     // Remove called; close f once refs drains to zero
}

// countingWriter tracks the bytes written through it so spill writers can
// index stream offsets.
type countingWriter struct {
	w io.Writer
	n int64
}

// spillWriteFault, when non-nil, is consulted before every spill-file
// write and may return an error to simulate a full or failing disk
// (tests of the error-path cleanup).
var spillWriteFault func() error

func (cw *countingWriter) Write(p []byte) (int, error) {
	if spillWriteFault != nil {
		if err := spillWriteFault(); err != nil {
			return 0, err
		}
	}
	n, err := cw.w.Write(p)
	cw.n += int64(n)
	return n, err
}

// BuildSpilledCorpus runs each generator once, streaming its output to
// path in the binary trace format (specified in docs/TRACE_FORMAT.md),
// and returns the on-disk handle. Unlike BuildCorpus, peak memory is one
// core's access sequence (plus the chunk buffer) rather than the whole
// trace: each core is buffered only long enough to learn its record
// count (the format prefixes every stream with it), encoded, and
// released. This is the builder for Scale values whose full trace would
// not fit in memory.
func BuildSpilledCorpus(gens []GenFunc, path string) (_ *SpilledCorpus, err error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	// Any abandoned build must take its partial spill file with it — encode
	// and close errors, but also generator panics, which propagate to the
	// caller (workload bugs, as in BuildCorpus). A sweep that
	// leaks one orphan per failed build would slowly fill the spill volume.
	ok := false
	defer func() {
		if !ok {
			f.Close()
			os.Remove(path)
		}
	}()
	cw := &countingWriter{w: f}
	bw := bufio.NewWriter(cw)
	enc := streamEncoder{bw: bw}
	sc := &SpilledCorpus{
		path:    path,
		counts:  make([]uint64, len(gens)),
		offsets: make([]int64, len(gens)),
	}
	write := func() error {
		if err := enc.header(len(gens)); err != nil {
			return err
		}
		sink := &sliceSink{}
		bufp := chunkPool.Get().(*[]mem.Access)
		defer func() {
			*bufp = (*bufp)[:0]
			chunkPool.Put(bufp)
		}()
		e := &Emitter{chunk: (*bufp)[:0], sink: sink}
		for i, g := range gens {
			sink.accs = sink.accs[:0]
			e.gap = 0
			g(e)
			e.flush()
			// Flush so cw.n is exact at the stream boundary.
			if err := bw.Flush(); err != nil {
				return err
			}
			sc.offsets[i] = cw.n
			sc.counts[i] = uint64(len(sink.accs))
			sc.total += sc.counts[i]
			if err := enc.beginStream(sc.counts[i]); err != nil {
				return err
			}
			for j := range sink.accs {
				if err := enc.record(sink.accs[j]); err != nil {
					return err
				}
			}
		}
		return bw.Flush()
	}
	if err := write(); err != nil {
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	ok = true
	return sc, nil
}

// OpenSpilledCorpus opens an existing trace file as a spilled corpus:
// each core then replays through a decoder of its own, exactly as a corpus
// built by BuildSpilledCorpus does, and the file is never loaded whole —
// replay memory is one chunk buffer per core. Opening decodes the file
// once to index each core's section, and rejects a malformed file with the
// error ReadFile would return, so replay never meets a decode error.
// Remove deletes the file; a caller keeping its trace must not call it.
func OpenSpilledCorpus(path string) (*SpilledCorpus, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	br := bufio.NewReader(f)
	cores, err := readHeader(br)
	if err != nil {
		return nil, err
	}
	sc := &SpilledCorpus{
		path:    path,
		counts:  make([]uint64, cores),
		offsets: make([]int64, cores),
	}
	for c := range sc.offsets {
		pos, err := f.Seek(0, io.SeekCurrent)
		if err != nil {
			return nil, err
		}
		sc.offsets[c] = pos - int64(br.Buffered())
		dec, err := newStreamDecoder(br, c)
		if err != nil {
			return nil, err
		}
		for {
			_, ok, err := dec.next()
			if err != nil {
				return nil, err
			}
			if !ok {
				break
			}
		}
		sc.counts[c] = dec.read
		sc.total += dec.read
	}
	if err := expectEOF(br); err != nil {
		return nil, err
	}
	return sc, nil
}

// sliceSink accumulates one core's accesses in a reusable slice.
type sliceSink struct {
	accs []mem.Access
}

func (s *sliceSink) flush(chunk []mem.Access) { s.accs = append(s.accs, chunk...) }

// Cores implements Source.
func (sc *SpilledCorpus) Cores() int { return len(sc.offsets) }

// Accesses returns core's sequence length.
func (sc *SpilledCorpus) Accesses(core int) uint64 { return sc.counts[core] }

// Total returns the corpus size in accesses across all cores.
func (sc *SpilledCorpus) Total() uint64 { return sc.total }

// Path returns the spill file's location.
func (sc *SpilledCorpus) Path() string { return sc.path }

// Remove deletes the spill file and closes the shared descriptor once the
// last in-flight stream is closed. Streams handed out earlier keep working
// until then (the open descriptor survives the unlink on POSIX).
func (sc *SpilledCorpus) Remove() error {
	sc.mu.Lock()
	sc.removed = true
	if sc.refs == 0 && sc.f != nil {
		sc.f.Close()
		sc.f = nil
	}
	sc.mu.Unlock()
	return os.Remove(sc.path)
}

// acquire returns the lazily opened shared descriptor, counting the caller
// as a reader until release.
func (sc *SpilledCorpus) acquire() (*os.File, error) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if sc.f == nil {
		f, err := os.Open(sc.path)
		if err != nil {
			return nil, err
		}
		sc.f = f
	}
	sc.refs++
	return sc.f, nil
}

// release drops one reader; the descriptor closes once a removed corpus
// has no readers left.
func (sc *SpilledCorpus) release() {
	sc.mu.Lock()
	sc.refs--
	if sc.removed && sc.refs == 0 && sc.f != nil {
		sc.f.Close()
		sc.f = nil
	}
	sc.mu.Unlock()
}

// Stream returns a fresh replay view of core's on-disk sequence. The spill
// file was written by this process or validated whole when it was opened;
// a decode or IO failure mid-replay indicates an unusable environment
// (truncated disk, concurrent deletion or rewrite) and panics with context
// rather than silently ending the stream. Close
// the stream when done (the simulator does) so the shared descriptor can
// be released after Remove.
func (sc *SpilledCorpus) Stream(core int) Stream {
	f, err := sc.acquire()
	if err != nil {
		panic(fmt.Sprintf("trace: reopening spilled corpus: %v", err))
	}
	// A section per stream over the shared descriptor: SectionReader uses
	// ReadAt, so concurrent streams never perturb each other's position.
	sect := io.NewSectionReader(f, sc.offsets[core], 1<<62-sc.offsets[core])
	dec, err := newStreamDecoder(bufio.NewReader(sect), core)
	if err != nil {
		sc.release()
		panic(fmt.Sprintf("trace: spilled corpus %s: %v", sc.path, err))
	}
	return &fileStream{sc: sc, dec: dec}
}

// Streams implements Source.
func (sc *SpilledCorpus) Streams() []Stream {
	out := make([]Stream, len(sc.offsets))
	for i := range out {
		out[i] = sc.Stream(i)
	}
	return out
}

// fileStream incrementally decodes one core's stream from a spill file in
// chunkSize batches, implementing ChunkStream like the in-memory views.
// It reads through a SectionReader over the corpus's shared descriptor,
// held acquired until Close.
type fileStream struct {
	sc  *SpilledCorpus
	dec *streamDecoder
	buf []mem.Access
	idx int
}

// fill decodes the next batch into the reusable buffer.
func (s *fileStream) fill() bool {
	if s.dec == nil { // closed
		return false
	}
	if s.buf == nil {
		s.buf = make([]mem.Access, 0, chunkSize)
	}
	s.buf = s.buf[:0]
	s.idx = 0
	for len(s.buf) < chunkSize {
		a, ok, err := s.dec.next()
		if err != nil {
			panic(fmt.Sprintf("trace: replaying spilled corpus: %v", err))
		}
		if !ok {
			break
		}
		s.buf = append(s.buf, a)
	}
	return len(s.buf) > 0
}

func (s *fileStream) Next() (mem.Access, bool) {
	if s.idx >= len(s.buf) && !s.fill() {
		return mem.Access{}, false
	}
	a := s.buf[s.idx]
	s.idx++
	return a, true
}

// NextChunk hands over the undelivered remainder of the current batch.
func (s *fileStream) NextChunk() ([]mem.Access, bool) {
	if s.idx >= len(s.buf) && !s.fill() {
		return nil, false
	}
	out := s.buf[s.idx:]
	s.idx = len(s.buf)
	return out, true
}

func (s *fileStream) Close() {
	if s.dec == nil {
		return // already closed
	}
	s.buf, s.dec = nil, nil
	s.sc.release()
}
