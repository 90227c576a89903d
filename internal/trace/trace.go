// Package trace provides deterministic per-core memory access streams.
// Workload kernels are written as ordinary imperative code against an
// Emitter. Two delivery modes exist:
//
//   - live (New): each core's kernel runs in its own goroutine and delivers
//     accesses in fixed-size chunks over a channel, so traces are never
//     fully materialized;
//   - materialized (BuildCorpus): every kernel runs once, synchronously,
//     into chunked arena storage, and replay hands out cheap ChunkStream
//     views — the experiment layer's choice, since sweeps re-simulate the
//     same trace many times.
//
// Delivery order per stream is exactly emission order in both modes, so
// simulations are deterministic regardless of goroutine scheduling and
// bit-identical across modes.
package trace

import (
	"sync"

	"lacc/internal/mem"
)

// chunkSize balances channel traffic against buffering memory.
const chunkSize = 4096

// chunkPool recycles Emitter chunk buffers for sinks that retain buffer
// ownership (the corpus build path copies each chunk into arena storage and
// hands the buffer straight back, so one pooled buffer serves a whole
// corpus build — and concurrent builds don't contend on a shared buffer).
// The channel path cannot pool: flushed buffers are owned by the consumer.
var chunkPool = sync.Pool{
	New: func() any {
		buf := make([]mem.Access, 0, chunkSize)
		return &buf
	},
}

// Stream yields one core's access sequence.
type Stream interface {
	// Next returns the next access; ok is false once the stream ends.
	Next() (a mem.Access, ok bool)
	// Close releases generator resources. It is safe to call multiple
	// times and after exhaustion.
	Close()
}

// ChunkStream is an optional Stream refinement: NextChunk returns the next
// batch of accesses in delivery order, non-empty while ok. The returned
// slice shares the stream's backing storage and is valid until the
// following NextChunk or Next call. The simulator consumes chunks when
// available, replacing one dynamic dispatch and one 16-byte mem.Access
// return copy per access with a slice index.
type ChunkStream interface {
	Stream
	NextChunk() ([]mem.Access, bool)
}

// GenFunc emits one core's trace through the Emitter. Returning ends the
// stream.
type GenFunc func(e *Emitter)

// aborted signals generator shutdown via panic/recover, the only way to
// stop arbitrary kernel code blocked on a full channel.
type aborted struct{}

// emitterSink consumes full chunks from an Emitter. flush takes ownership
// of chunk and returns the buffer to fill next (which may be chunk itself,
// reset, when the sink copies the data out).
type emitterSink interface {
	flush(chunk []mem.Access) (next []mem.Access)
}

// Emitter collects accesses from a workload kernel. Compute gaps accumulate
// and attach to the next emitted operation.
type Emitter struct {
	chunk []mem.Access
	sink  emitterSink
	gap   uint32
}

// Compute records `cycles` of pipeline compute before the next operation.
func (e *Emitter) Compute(cycles int) {
	if cycles > 0 {
		e.gap += uint32(cycles)
	}
}

// Read emits a data read of the 64-bit word at a.
func (e *Emitter) Read(a mem.Addr) { e.emit(mem.Access{Kind: mem.Read, Addr: a, Gap: e.takeGap()}) }

// Write emits a data write of the 64-bit word at a.
func (e *Emitter) Write(a mem.Addr) { e.emit(mem.Access{Kind: mem.Write, Addr: a, Gap: e.takeGap()}) }

// Barrier emits a global barrier with identifier id; every core must emit
// the same sequence of barriers.
func (e *Emitter) Barrier(id uint64) {
	e.emit(mem.Access{Kind: mem.Barrier, Addr: mem.Addr(id), Gap: e.takeGap()})
}

// Lock emits an acquire of lock id.
func (e *Emitter) Lock(id uint64) {
	e.emit(mem.Access{Kind: mem.Lock, Addr: mem.Addr(id), Gap: e.takeGap()})
}

// Unlock emits a release of lock id.
func (e *Emitter) Unlock(id uint64) {
	e.emit(mem.Access{Kind: mem.Unlock, Addr: mem.Addr(id), Gap: e.takeGap()})
}

func (e *Emitter) takeGap() uint32 {
	g := e.gap
	e.gap = 0
	return g
}

func (e *Emitter) emit(a mem.Access) {
	e.chunk = append(e.chunk, a)
	if len(e.chunk) == chunkSize {
		e.flush()
	}
}

func (e *Emitter) flush() {
	if len(e.chunk) == 0 {
		return
	}
	e.chunk = e.sink.flush(e.chunk)
}

// chanSink delivers chunks over the generator goroutine's channel. The
// consumer owns flushed buffers, so every flush starts a fresh one.
type chanSink struct {
	out  chan []mem.Access
	quit chan struct{}
}

func (s *chanSink) flush(chunk []mem.Access) []mem.Access {
	select {
	case s.out <- chunk:
		return make([]mem.Access, 0, chunkSize)
	case <-s.quit:
		panic(aborted{})
	}
}

// chanStream adapts the generator goroutine's channel to the Stream
// interface.
type chanStream struct {
	ch     chan []mem.Access
	quit   chan struct{}
	cur    []mem.Access
	idx    int
	closed bool
}

// New starts gen in a goroutine and returns its stream.
func New(gen GenFunc) Stream {
	s := &chanStream{
		ch:   make(chan []mem.Access, 2),
		quit: make(chan struct{}),
	}
	e := &Emitter{
		chunk: make([]mem.Access, 0, chunkSize),
		sink:  &chanSink{out: s.ch, quit: s.quit},
	}
	go func() {
		defer close(s.ch)
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(aborted); !ok {
					panic(r) // real kernel bug: propagate
				}
			}
		}()
		gen(e)
		e.flush()
	}()
	return s
}

func (s *chanStream) Next() (mem.Access, bool) {
	for s.idx >= len(s.cur) {
		chunk, ok := <-s.ch
		if !ok {
			return mem.Access{}, false
		}
		s.cur, s.idx = chunk, 0
	}
	a := s.cur[s.idx]
	s.idx++
	return a, true
}

// NextChunk implements ChunkStream: it hands over the undelivered remainder
// of the current chunk, or receives the next one.
func (s *chanStream) NextChunk() ([]mem.Access, bool) {
	for s.idx >= len(s.cur) {
		chunk, ok := <-s.ch
		if !ok {
			return nil, false
		}
		s.cur, s.idx = chunk, 0
	}
	c := s.cur[s.idx:]
	s.idx = len(s.cur)
	return c, true
}

func (s *chanStream) Close() {
	if s.closed {
		return
	}
	s.closed = true
	close(s.quit)
	// Drain so the generator goroutine observes quit or finishes.
	for range s.ch {
	}
}

// FromSlice returns a Stream over a pre-built access slice (test helper and
// public custom-trace entry point).
func FromSlice(accesses []mem.Access) Stream {
	return &sliceStream{accesses: accesses}
}

type sliceStream struct {
	accesses []mem.Access
	idx      int
}

func (s *sliceStream) Next() (mem.Access, bool) {
	if s.idx >= len(s.accesses) {
		return mem.Access{}, false
	}
	a := s.accesses[s.idx]
	s.idx++
	return a, true
}

// NextChunk implements ChunkStream: the whole remaining slice at once.
func (s *sliceStream) NextChunk() ([]mem.Access, bool) {
	if s.idx >= len(s.accesses) {
		return nil, false
	}
	c := s.accesses[s.idx:]
	s.idx = len(s.accesses)
	return c, true
}

func (s *sliceStream) Close() {}
