package mem

import (
	"testing"
	"testing/quick"
	"unsafe"
)

func TestLineOf(t *testing.T) {
	cases := []struct {
		in, want Addr
	}{
		{0, 0},
		{1, 0},
		{63, 0},
		{64, 64},
		{65, 64},
		{4095, 4032},
		{4096, 4096},
	}
	for _, c := range cases {
		if got := LineOf(c.in); got != c.want {
			t.Errorf("LineOf(%d) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestPageOf(t *testing.T) {
	cases := []struct {
		in, want Addr
	}{
		{0, 0},
		{4095, 0},
		{4096, 4096},
		{8191, 4096},
	}
	for _, c := range cases {
		if got := PageOf(c.in); got != c.want {
			t.Errorf("PageOf(%d) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestWordInLine(t *testing.T) {
	if got := WordInLine(0); got != 0 {
		t.Errorf("WordInLine(0) = %d", got)
	}
	if got := WordInLine(8); got != 1 {
		t.Errorf("WordInLine(8) = %d", got)
	}
	if got := WordInLine(63); got != 7 {
		t.Errorf("WordInLine(63) = %d", got)
	}
	if got := WordInLine(64); got != 0 {
		t.Errorf("WordInLine(64) = %d", got)
	}
}

func TestKindString(t *testing.T) {
	kinds := map[AccessKind]string{
		Read: "read", Write: "write", Barrier: "barrier",
		Lock: "lock", Unlock: "unlock", AccessKind(99): "kind(99)",
	}
	for k, want := range kinds {
		if got := k.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", k, got, want)
		}
	}
}

func TestIsData(t *testing.T) {
	if !Read.IsData() || !Write.IsData() {
		t.Error("Read/Write must be data accesses")
	}
	if Barrier.IsData() || Lock.IsData() || Unlock.IsData() {
		t.Error("sync ops must not be data accesses")
	}
}

// Property: LineOf is idempotent, monotone within a line, and word offsets
// stay in range.
func TestLineOfProperties(t *testing.T) {
	f := func(a Addr) bool {
		l := LineOf(a)
		if LineOf(l) != l {
			return false
		}
		if l > a || a-l >= LineBytes {
			return false
		}
		w := WordInLine(a)
		return w >= 0 && w < WordsPerLine
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: a line never straddles a page.
func TestLineWithinPage(t *testing.T) {
	f := func(a Addr) bool {
		return PageOf(LineOf(a)) == PageOf(LineOf(a)+LineBytes-1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// An Access must stay 16 bytes. Every replayed access is copied out of a
// chunk, and trace corpora and per-core buffers hold millions of them, so
// padding is paid per access and per byte of corpus. Declaring Kind first
// pads the struct to 24 bytes; the trace corpus sizes its arena blocks on
// 16.
func TestAccessSize(t *testing.T) {
	if got := unsafe.Sizeof(Access{}); got != 16 {
		t.Errorf("unsafe.Sizeof(Access{}) = %d, want 16", got)
	}
}
