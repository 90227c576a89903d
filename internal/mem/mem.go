// Package mem defines the primitive address and access types shared by the
// cache hierarchy, coherence protocol and workload trace generators.
package mem

import "fmt"

// Addr is a 48-bit physical byte address (Table 1 of the paper).
type Addr uint64

// Memory geometry constants (Table 1: 64-byte cache lines, 4 KB pages).
const (
	LineBytes = 64
	LineShift = 6
	PageBytes = 4096
	PageShift = 12
	WordBytes = 8 // 64-bit words; one word = one flit payload
	WordShift = 3
	// WordsPerLine is the number of 64-bit words in a cache line.
	WordsPerLine = LineBytes / WordBytes
)

// LineOf returns the line-aligned base address of a.
func LineOf(a Addr) Addr { return a &^ (LineBytes - 1) }

// PageOf returns the page-aligned base address of a.
func PageOf(a Addr) Addr { return a &^ (PageBytes - 1) }

// LineIndex returns the line number (address / 64).
func LineIndex(a Addr) uint64 { return uint64(a) >> LineShift }

// LineKey returns a guaranteed-non-zero key for a's cache line (the line
// index plus one). The simulator's open-addressed line-metadata tables use
// zero as their empty-slot sentinel, so line keys must never collide with
// it; with 48-bit addresses the +1 cannot overflow.
func LineKey(a Addr) uint64 { return uint64(a)>>LineShift + 1 }

// WordInLine returns the word offset (0..7) of a within its cache line.
func WordInLine(a Addr) int { return int(a>>WordShift) & (WordsPerLine - 1) }

// AccessKind discriminates the operations a workload trace can contain.
type AccessKind uint8

// Trace operation kinds. Read/Write address data memory. Barrier, Lock and
// Unlock are synchronization operations whose Addr field carries the
// barrier/lock identifier rather than a memory address.
const (
	Read AccessKind = iota
	Write
	Barrier
	Lock
	Unlock
)

// String implements fmt.Stringer for diagnostics.
func (k AccessKind) String() string {
	switch k {
	case Read:
		return "read"
	case Write:
		return "write"
	case Barrier:
		return "barrier"
	case Lock:
		return "lock"
	case Unlock:
		return "unlock"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// IsData reports whether the operation addresses data memory.
func (k AccessKind) IsData() bool { return k == Read || k == Write }

// Access is one trace operation issued by a core. Gap is the number of
// compute cycles the core spends before issuing the operation; it models the
// in-order single-issue pipeline of Table 1. Fields are ordered widest
// first so an Access is 16 bytes, not 24 (see TestAccessSize).
type Access struct {
	Addr Addr
	Gap  uint32
	Kind AccessKind
}

// Cycle is a simulated clock value at 1 GHz (1 cycle == 1 ns).
type Cycle uint64
