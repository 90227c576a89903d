package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"lacc/internal/mem"
)

// Binary trace file format. A file stores the access streams of all cores
// of one run so that simulations can be replayed without re-running the
// workload kernels, compared across protocol configurations, or inspected
// offline. The same encoding backs spilled corpora (BuildSpilledCorpus),
// which add an in-memory per-core offset index over the stream sections.
//
// Layout (uvarint = unsigned LEB128 base-128 varint):
//
//	header:  magic "LACCTRC1" | uvarint cores
//	stream:  uvarint count | count * record, repeated cores times in order
//	record:  1 byte kind | uvarint gap | uvarint addr-delta-zigzag
//
// Addresses are delta-encoded (zigzag) per stream: workload traces walk
// arrays, so deltas are small and the format compresses 10-byte records to
// 2-3 bytes on typical kernels.
//
// docs/TRACE_FORMAT.md is the normative specification (field meanings,
// decoder validation rules, versioning policy); keep it in sync with any
// change here.

// Magic identifies trace files (version 1).
const Magic = "LACCTRC1"

// ErrBadTrace reports a malformed trace file.
var ErrBadTrace = errors.New("trace: malformed trace file")

// WriteFile encodes the per-core access slices to w.
func WriteFile(w io.Writer, streams [][]mem.Access) error {
	bw := bufio.NewWriter(w)
	enc := streamEncoder{bw: bw}
	if err := enc.header(len(streams)); err != nil {
		return err
	}
	for _, accs := range streams {
		if err := enc.beginStream(uint64(len(accs))); err != nil {
			return err
		}
		for _, a := range accs {
			if err := enc.record(a); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// streamEncoder writes the binary trace format (shared by WriteFile and
// BuildSpilledCorpus).
type streamEncoder struct {
	bw   *bufio.Writer
	buf  [binary.MaxVarintLen64]byte
	prev uint64
}

func (e *streamEncoder) uvarint(v uint64) error {
	n := binary.PutUvarint(e.buf[:], v)
	_, err := e.bw.Write(e.buf[:n])
	return err
}

func (e *streamEncoder) header(cores int) error {
	if _, err := e.bw.WriteString(Magic); err != nil {
		return err
	}
	return e.uvarint(uint64(cores))
}

// beginStream starts a new per-core stream of count records, resetting the
// delta-encoding base.
func (e *streamEncoder) beginStream(count uint64) error {
	e.prev = 0
	return e.uvarint(count)
}

func (e *streamEncoder) record(a mem.Access) error {
	if err := e.bw.WriteByte(byte(a.Kind)); err != nil {
		return err
	}
	if err := e.uvarint(uint64(a.Gap)); err != nil {
		return err
	}
	delta := int64(uint64(a.Addr) - e.prev)
	if err := e.uvarint(zigzag(delta)); err != nil {
		return err
	}
	e.prev = uint64(a.Addr)
	return nil
}

// ReadFile decodes a trace file into per-core access slices.
func ReadFile(r io.Reader) ([][]mem.Access, error) {
	br := bufio.NewReader(r)
	cores, err := readHeader(br)
	if err != nil {
		return nil, err
	}
	out := make([][]mem.Access, cores)
	for c := range out {
		dec, err := newStreamDecoder(br, c)
		if err != nil {
			return nil, err
		}
		accs := make([]mem.Access, 0, min64(dec.remaining, 1<<20))
		for {
			a, ok, err := dec.next()
			if err != nil {
				return nil, err
			}
			if !ok {
				break
			}
			accs = append(accs, a)
		}
		out[c] = accs
	}
	if err := expectEOF(br); err != nil {
		return nil, err
	}
	return out, nil
}

// readHeader checks the magic and returns the core count.
func readHeader(br *bufio.Reader) (uint64, error) {
	magic := make([]byte, len(Magic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return 0, fmt.Errorf("%w: %v", ErrBadTrace, err)
	}
	if string(magic) != Magic {
		return 0, fmt.Errorf("%w: bad magic %q", ErrBadTrace, magic)
	}
	cores, err := binary.ReadUvarint(br)
	if err != nil {
		return 0, fmt.Errorf("%w: core count: %v", ErrBadTrace, err)
	}
	const maxCores = 1 << 20
	if cores > maxCores {
		return 0, fmt.Errorf("%w: implausible core count %d", ErrBadTrace, cores)
	}
	return cores, nil
}

// expectEOF checks that br is exhausted. A valid file is exactly header +
// cores stream sections: anything after the last stream is corruption (a
// truncated count elsewhere, a concatenated file, garbage) that silent
// acceptance would mask.
func expectEOF(br *bufio.Reader) error {
	if _, err := br.ReadByte(); err == nil {
		return fmt.Errorf("%w: trailing bytes after final stream", ErrBadTrace)
	} else if err != io.EOF {
		return fmt.Errorf("%w: after final stream: %v", ErrBadTrace, err)
	}
	return nil
}

// streamDecoder decodes one core's record sequence from a trace file,
// record by record, so callers can replay a stream without materializing
// it (the spilled-corpus replay path) or slurp it whole (ReadFile).
type streamDecoder struct {
	br        *bufio.Reader
	remaining uint64
	read      uint64
	prev      uint64
	stream    int // for error messages
}

// newStreamDecoder reads the stream's record count and positions the
// decoder at its first record.
func newStreamDecoder(br *bufio.Reader, stream int) (*streamDecoder, error) {
	count, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("%w: stream %d length: %v", ErrBadTrace, stream, err)
	}
	return &streamDecoder{br: br, remaining: count, stream: stream}, nil
}

// next decodes one record; ok is false once the stream is exhausted.
func (d *streamDecoder) next() (a mem.Access, ok bool, err error) {
	if d.remaining == 0 {
		return mem.Access{}, false, nil
	}
	i := d.read
	kind, err := d.br.ReadByte()
	if err != nil {
		return mem.Access{}, false, fmt.Errorf("%w: stream %d record %d: %v", ErrBadTrace, d.stream, i, err)
	}
	if mem.AccessKind(kind) > mem.Unlock {
		return mem.Access{}, false, fmt.Errorf("%w: stream %d record %d: kind %d", ErrBadTrace, d.stream, i, kind)
	}
	gap, err := binary.ReadUvarint(d.br)
	if err != nil {
		return mem.Access{}, false, fmt.Errorf("%w: stream %d record %d gap: %v", ErrBadTrace, d.stream, i, err)
	}
	if gap > 1<<32-1 {
		return mem.Access{}, false, fmt.Errorf("%w: stream %d record %d: gap %d overflows", ErrBadTrace, d.stream, i, gap)
	}
	zz, err := binary.ReadUvarint(d.br)
	if err != nil {
		return mem.Access{}, false, fmt.Errorf("%w: stream %d record %d addr: %v", ErrBadTrace, d.stream, i, err)
	}
	d.prev += uint64(unzigzag(zz))
	d.remaining--
	d.read++
	return mem.Access{Kind: mem.AccessKind(kind), Gap: uint32(gap), Addr: mem.Addr(d.prev)}, true, nil
}

// FromSlices wraps per-core access slices as replayable streams.
func FromSlices(accs [][]mem.Access) []Stream {
	streams := make([]Stream, len(accs))
	for i, a := range accs {
		streams[i] = FromSlice(a)
	}
	return streams
}

func zigzag(v int64) uint64   { return uint64((v << 1) ^ (v >> 63)) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

func min64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}
