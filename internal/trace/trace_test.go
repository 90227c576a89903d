package trace

import (
	"testing"

	"lacc/internal/mem"
)

// build materializes one generator and returns its replay stream.
func build(gen GenFunc) Stream { return BuildCorpus([]GenFunc{gen}).Stream(0) }

func TestStreamDeliversEmissionOrder(t *testing.T) {
	s := build(func(e *Emitter) {
		for i := 0; i < 10000; i++ {
			if i%3 == 0 {
				e.Write(mem.Addr(i * 8))
			} else {
				e.Read(mem.Addr(i * 8))
			}
		}
	})
	defer s.Close()
	for i := 0; i < 10000; i++ {
		a, ok := s.Next()
		if !ok {
			t.Fatalf("stream ended early at %d", i)
		}
		if a.Addr != mem.Addr(i*8) {
			t.Fatalf("access %d addr = %#x", i, a.Addr)
		}
		wantKind := mem.Read
		if i%3 == 0 {
			wantKind = mem.Write
		}
		if a.Kind != wantKind {
			t.Fatalf("access %d kind = %v, want %v", i, a.Kind, wantKind)
		}
	}
	if _, ok := s.Next(); ok {
		t.Fatal("stream did not end")
	}
}

func TestComputeGapsAttachToNextOp(t *testing.T) {
	s := build(func(e *Emitter) {
		e.Compute(10)
		e.Compute(5)
		e.Read(0x100)
		e.Write(0x200) // no gap
		e.Compute(7)
		e.Barrier(1)
	})
	defer s.Close()
	a, _ := s.Next()
	if a.Gap != 15 {
		t.Fatalf("first gap = %d, want 15", a.Gap)
	}
	b, _ := s.Next()
	if b.Gap != 0 {
		t.Fatalf("second gap = %d, want 0", b.Gap)
	}
	c, _ := s.Next()
	if c.Kind != mem.Barrier || c.Addr != 1 || c.Gap != 7 {
		t.Fatalf("barrier op = %+v", c)
	}
}

func TestNegativeComputeIgnored(t *testing.T) {
	s := build(func(e *Emitter) {
		e.Compute(-5)
		e.Read(0)
	})
	defer s.Close()
	a, _ := s.Next()
	if a.Gap != 0 {
		t.Fatalf("gap = %d", a.Gap)
	}
}

func TestSyncOps(t *testing.T) {
	s := build(func(e *Emitter) {
		e.Lock(3)
		e.Write(0x40)
		e.Unlock(3)
	})
	defer s.Close()
	ops := []mem.AccessKind{mem.Lock, mem.Write, mem.Unlock}
	for i, want := range ops {
		a, ok := s.Next()
		if !ok || a.Kind != want {
			t.Fatalf("op %d = %+v ok=%v, want kind %v", i, a, ok, want)
		}
	}
}

func TestFromSlice(t *testing.T) {
	accs := []mem.Access{
		{Kind: mem.Read, Addr: 1},
		{Kind: mem.Write, Addr: 2},
	}
	s := FromSlice(accs)
	defer s.Close()
	for i := range accs {
		a, ok := s.Next()
		if !ok || a != accs[i] {
			t.Fatalf("op %d = %+v ok=%v", i, a, ok)
		}
	}
	if _, ok := s.Next(); ok {
		t.Fatal("slice stream did not end")
	}
	s.Close() // Close is idempotent

	// The chunked view hands back the caller's own slice, not a copy.
	c, ok := FromSlice(accs).(ChunkStream).NextChunk()
	if !ok || len(c) != len(accs) || &c[0] != &accs[0] {
		t.Fatalf("NextChunk = %d accesses ok=%v, want the caller's slice", len(c), ok)
	}
	if _, ok := FromSlice(nil).Next(); ok {
		t.Fatal("empty slice stream yielded an access")
	}
}

func TestEmptyGenerator(t *testing.T) {
	s := build(func(e *Emitter) {})
	defer s.Close()
	if _, ok := s.Next(); ok {
		t.Fatal("empty generator produced an access")
	}
}
