package workloads

import (
	"testing"

	"lacc/internal/mem"
	"lacc/internal/trace"
)

// testSpec is a small, fast spec used across the tests.
func testSpec() Spec { return Spec{Cores: 8, Scale: 0.1, Seed: 7} }

func TestRegistryComplete(t *testing.T) {
	names := Names()
	if len(names) != len(tableOrder) {
		t.Fatalf("registry has %d workloads, Table 2 lists %d", len(names), len(tableOrder))
	}
	for i, want := range tableOrder {
		if names[i] != want {
			t.Fatalf("Names()[%d] = %q, want %q (Table 2 order)", i, names[i], want)
		}
	}
	for _, w := range All() {
		if w.Label == "" || w.Suite == "" || w.PaperSize == "" || w.DefaultSize == "" {
			t.Errorf("%s: incomplete metadata %+v", w.Name, w)
		}
	}
}

func TestByName(t *testing.T) {
	w, ok := ByName("streamcluster")
	if !ok || w.Name != "streamcluster" {
		t.Fatalf("ByName(streamcluster) = %v, %v", w, ok)
	}
	if _, ok := ByName("no-such-benchmark"); ok {
		t.Fatal("ByName accepted an unknown name")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustByName did not panic on unknown name")
		}
	}()
	MustByName("no-such-benchmark")
}

// drain consumes a stream fully, returning its accesses.
func drain(t *testing.T, s trace.Stream) []mem.Access {
	t.Helper()
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

// generate runs one generator and returns what it emitted.
func generate(t *testing.T, g trace.GenFunc) []mem.Access {
	t.Helper()
	return drain(t, trace.BuildCorpus([]trace.GenFunc{g}).Stream(0))
}

// TestEveryWorkloadEmits checks, for every registered workload, that every
// core emits a non-empty stream of well-formed operations: data addresses
// inside the data segment, matched lock/unlock pairs, and identical barrier
// sequences across cores.
func TestEveryWorkloadEmits(t *testing.T) {
	for _, w := range All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			spec := testSpec()
			gens := w.Build(spec)
			if len(gens) != spec.Cores {
				t.Fatalf("Build returned %d generators for %d cores", len(gens), spec.Cores)
			}
			var barrierSeqs [][]mem.Addr
			for c, g := range gens {
				accs := generate(t, g)
				if len(accs) == 0 {
					t.Fatalf("core %d emitted no accesses", c)
				}
				held := map[mem.Addr]bool{}
				var barSeq []mem.Addr
				data := 0
				for i, a := range accs {
					switch a.Kind {
					case mem.Read, mem.Write:
						data++
						if a.Addr < dataBase {
							t.Fatalf("core %d access %d: address %#x below data segment", c, i, a.Addr)
						}
					case mem.Barrier:
						barSeq = append(barSeq, a.Addr)
					case mem.Lock:
						if held[a.Addr] {
							t.Fatalf("core %d: recursive lock %d", c, a.Addr)
						}
						held[a.Addr] = true
					case mem.Unlock:
						if !held[a.Addr] {
							t.Fatalf("core %d: unlock of lock %d not held", c, a.Addr)
						}
						delete(held, a.Addr)
					default:
						t.Fatalf("core %d access %d: unknown kind %v", c, i, a.Kind)
					}
				}
				if len(held) != 0 {
					t.Fatalf("core %d finished holding %d locks", c, len(held))
				}
				if data == 0 {
					t.Fatalf("core %d emitted no data accesses", c)
				}
				barrierSeqs = append(barrierSeqs, barSeq)
			}
			for c := 1; c < len(barrierSeqs); c++ {
				if len(barrierSeqs[c]) != len(barrierSeqs[0]) {
					t.Fatalf("core %d emits %d barriers, core 0 emits %d",
						c, len(barrierSeqs[c]), len(barrierSeqs[0]))
				}
				for i := range barrierSeqs[c] {
					if barrierSeqs[c][i] != barrierSeqs[0][i] {
						t.Fatalf("core %d barrier %d id %d != core 0 id %d",
							c, i, barrierSeqs[c][i], barrierSeqs[0][i])
					}
				}
			}
		})
	}
}

// TestDeterminism re-builds each workload twice with identical specs and
// requires bit-identical streams.
func TestDeterminism(t *testing.T) {
	for _, w := range All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			spec := testSpec()
			g1 := w.Build(spec)
			g2 := w.Build(spec)
			for c := range g1 {
				a1 := generate(t, g1[c])
				a2 := generate(t, g2[c])
				if len(a1) != len(a2) {
					t.Fatalf("core %d: %d vs %d accesses across builds", c, len(a1), len(a2))
				}
				for i := range a1 {
					if a1[i] != a2[i] {
						t.Fatalf("core %d access %d differs: %+v vs %+v", c, i, a1[i], a2[i])
					}
				}
			}
		})
	}
}

// TestSeedChangesRandomizedWorkloads checks that the Seed knob actually
// perturbs kernels that advertise randomness.
func TestSeedChangesRandomizedWorkloads(t *testing.T) {
	for _, name := range []string{"canneal", "raytrace", "dedup"} {
		w := MustByName(name)
		a := generate(t, w.Build(Spec{Cores: 4, Scale: 0.1, Seed: 1})[0])
		b := generate(t, w.Build(Spec{Cores: 4, Scale: 0.1, Seed: 2})[0])
		same := len(a) == len(b)
		if same {
			for i := range a {
				if a[i] != b[i] {
					same = false
					break
				}
			}
		}
		if same {
			t.Errorf("%s: seeds 1 and 2 produced identical traces", name)
		}
	}
}

// TestScaleGrowsProblem checks the Scale knob increases trace volume.
func TestScaleGrowsProblem(t *testing.T) {
	w := MustByName("blackscholes")
	small := generate(t, w.Build(Spec{Cores: 4, Scale: 0.1, Seed: 0})[0])
	large := generate(t, w.Build(Spec{Cores: 4, Scale: 0.5, Seed: 0})[0])
	if len(large) <= len(small) {
		t.Fatalf("scale 0.5 trace (%d) not larger than scale 0.1 trace (%d)",
			len(large), len(small))
	}
}

func TestSpecNormalize(t *testing.T) {
	n := Spec{}.normalize()
	if n.Cores != 64 || n.Scale != 1 {
		t.Fatalf("normalize() = %+v, want 64 cores scale 1", n)
	}
	if got := (Spec{Scale: 1}).scaled(100, 8); got != 100 {
		t.Fatalf("scaled(100) at scale 1 = %d", got)
	}
	if got := (Spec{Scale: 0.01}.normalize()).scaled(100, 8); got != 8 {
		t.Fatalf("scaled floor = %d, want 8", got)
	}
}

func TestStripeCoversAll(t *testing.T) {
	for _, n := range []int{0, 1, 7, 64, 100} {
		for _, cores := range []int{1, 3, 8, 64} {
			covered := 0
			prevHi := 0
			for c := 0; c < cores; c++ {
				lo, hi := stripe(n, cores, c)
				if lo != prevHi {
					t.Fatalf("stripe(%d,%d,%d) lo=%d, want %d", n, cores, c, lo, prevHi)
				}
				if hi < lo {
					t.Fatalf("stripe(%d,%d,%d) inverted [%d,%d)", n, cores, c, lo, hi)
				}
				covered += hi - lo
				prevHi = hi
			}
			if covered != n || prevHi != n {
				t.Fatalf("stripe over n=%d cores=%d covered %d ending %d", n, cores, covered, prevHi)
			}
		}
	}
}

func TestArenaRegionsDisjointAndPageAligned(t *testing.T) {
	a := newArena()
	r1 := a.region(10)
	r2 := a.region(4096)
	r3 := a.region(1)
	regions := []region{r1, r2, r3}
	for i, r := range regions {
		if r.base%mem.PageBytes != 0 {
			t.Fatalf("region %d base %#x not page aligned", i, r.base)
		}
		for j, o := range regions {
			if i == j {
				continue
			}
			if r.contains(o.base) || o.contains(r.base) {
				t.Fatalf("regions %d and %d overlap", i, j)
			}
		}
	}
	if r1.Lines() != 2 || r2.Lines() != 512 {
		t.Fatalf("Lines() = %d, %d; want 2, 512", r1.Lines(), r2.Lines())
	}
}

func TestRegionBoundsChecks(t *testing.T) {
	a := newArena()
	r := a.region(8)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-bounds word access did not panic")
		}
	}()
	r.w(8)
}

func TestRNGDeterminismAndRange(t *testing.T) {
	a, b := newRNG(1, 2), newRNG(1, 2)
	for i := 0; i < 100; i++ {
		if a.next() != b.next() {
			t.Fatal("identical seeds diverged")
		}
	}
	c := newRNG(1, 3)
	diff := false
	for i := 0; i < 10; i++ {
		if a.next() != c.next() {
			diff = true
		}
	}
	if !diff {
		t.Fatal("different streams produced identical outputs")
	}
	r := newRNG(9, 9)
	for i := 0; i < 1000; i++ {
		if v := r.intn(10); v < 0 || v >= 10 {
			t.Fatalf("intn out of range: %d", v)
		}
		if f := r.float(); f < 0 || f >= 1 {
			t.Fatalf("float out of range: %v", f)
		}
	}
	p := r.perm(16)
	seen := make([]bool, 16)
	for _, v := range p {
		if seen[v] {
			t.Fatalf("perm repeated %d", v)
		}
		seen[v] = true
	}
}
