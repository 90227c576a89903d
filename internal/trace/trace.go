// Package trace provides deterministic per-core memory access streams.
// Workload kernels are written as ordinary imperative code against an
// Emitter. A trace reaches the simulator one way: BuildCorpus runs every
// kernel once, to completion and one after another on the calling
// goroutine, into chunked arena storage, and replay hands out cheap
// ChunkStream views of it; BuildSpilledCorpus does the same into the binary
// trace format on disk, for traces too large for memory. FromSlice wraps an
// access slice the caller built as the same kind of view.
//
// Delivery order per stream is exactly emission order, so simulations are
// deterministic and bit-identical across in-memory and spilled replay.
package trace

import (
	"sync"

	"lacc/internal/mem"
)

// chunkSize is the Emitter's buffer length in accesses: a kernel's output
// reaches its sink this many accesses at a time. Spilled replay decodes in
// batches of the same size.
const chunkSize = 4096

// chunkPool recycles Emitter chunk buffers. Every sink copies a flushed
// chunk out and the Emitter refills the same buffer, so one pooled buffer
// serves a whole build, and concurrent builds don't contend on a shared
// buffer.
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
	// Close releases the stream's resources. It is safe to call multiple
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
// stream. A build runs its generators to completion one after another on
// one goroutine, so a generator must not wait on another.
type GenFunc func(e *Emitter)

// emitterSink consumes full chunks from an Emitter. flush copies the chunk
// out; the Emitter then reuses the buffer.
type emitterSink interface {
	flush(chunk []mem.Access)
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
	e.sink.flush(e.chunk)
	e.chunk = e.chunk[:0]
}

// FromSlice returns a Stream over a pre-built access slice (test helper and
// public custom-trace entry point): a one-segment corpus view that shares
// the caller's slice and never writes to it.
func FromSlice(accesses []mem.Access) Stream {
	return &corpusStream{segs: [][]mem.Access{accesses}}
}
