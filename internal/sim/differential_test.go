package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"

	"lacc/internal/coherence"
	"lacc/internal/mem"
	"lacc/internal/trace"
)

// The differential property test: randomized access programs — reads,
// writes, compute gaps, locks and barriers over a mix of shared and
// per-core pages — are replayed through the flat fast core (New) and the
// map-backed reference core (newReference). The two storage layouts must be
// behaviorally indistinguishable: every Result field, the golden and DRAM
// version stores, and the final directory state must match exactly, and
// both must pass the structural audit (which runs inside Run when
// CheckValues is set). The machine is shrunk until every protocol path is
// exercised: tiny caches force L1/L2 evictions and back-invalidations,
// ACKwise-2 overflows into broadcasts, cross-core touches trigger R-NUCA
// page moves, and the victim-replication variant stresses replica
// bookkeeping.

// diffConfig is the small machine shared by the differential runs.
func diffConfig() Config {
	cfg := Default()
	cfg.Cores = 4
	cfg.MeshWidth = 2
	cfg.MemControllers = 2
	cfg.L1ISizeKB, cfg.L1IWays = 1, 2
	cfg.L1DSizeKB, cfg.L1DWays = 1, 2
	cfg.L2SizeKB, cfg.L2Ways = 4, 4
	cfg.AckwisePointers = 2
	cfg.ClassifierK = 2
	cfg.CodeLines = 12
	cfg.CheckValues = true
	cfg.TrackUtilization = true
	return cfg
}

// buildRandomProgram emits one access slice per core: rounds of randomized
// reads/writes (with gaps and occasional well-nested lock/unlock critical
// sections) separated by global barriers every core participates in.
func buildRandomProgram(rng *rand.Rand, cores int) [][]mem.Access {
	const (
		rounds      = 6
		opsPerRound = 150
		sharedPages = 3
	)
	dataBase := mem.Addr(1) << 22
	pageAddr := func(page int) mem.Addr {
		return dataBase + mem.Addr(page)*mem.PageBytes
	}
	randWord := func(page int) mem.Addr {
		return pageAddr(page) + mem.Addr(rng.Intn(mem.PageBytes/mem.WordBytes))*mem.WordBytes
	}
	progs := make([][]mem.Access, cores)
	for r := 0; r < rounds; r++ {
		for c := 0; c < cores; c++ {
			n := opsPerRound/2 + rng.Intn(opsPerRound)
			for i := 0; i < n; i++ {
				// 70% shared pool, else the core's own page (first-touch
				// private, occasionally poached below to force page moves).
				page := rng.Intn(sharedPages)
				if rng.Intn(10) >= 7 {
					page = sharedPages + c
				}
				if rng.Intn(50) == 0 {
					page = sharedPages + rng.Intn(cores) // poach a private page
				}
				kind := mem.Read
				if rng.Intn(5) < 2 {
					kind = mem.Write
				}
				a := mem.Access{Kind: kind, Addr: randWord(page), Gap: uint32(rng.Intn(5))}
				if rng.Intn(20) == 0 {
					// Critical section: lock, two accesses, unlock.
					id := uint64(1 + rng.Intn(2))
					progs[c] = append(progs[c],
						mem.Access{Kind: mem.Lock, Addr: mem.Addr(id)},
						a,
						mem.Access{Kind: kind, Addr: randWord(page)},
						mem.Access{Kind: mem.Unlock, Addr: mem.Addr(id)})
					continue
				}
				progs[c] = append(progs[c], a)
			}
			progs[c] = append(progs[c], mem.Access{Kind: mem.Barrier, Addr: mem.Addr(9000 + r)})
		}
	}
	return progs
}

// runProgram executes prog on a fresh simulator of the requested layout.
func runProgram(t *testing.T, cfg Config, reference bool, prog [][]mem.Access) (*Simulator, *Result) {
	t.Helper()
	var s *Simulator
	var err error
	if reference {
		s, err = newReference(cfg)
	} else {
		s, err = New(cfg)
	}
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(trace.FromSlices(prog))
	if err != nil {
		t.Fatalf("reference=%v: %v", reference, err)
	}
	return s, res
}

// dirSnap is one directory entry's observable state.
type dirSnap struct {
	Tile  int
	LA    mem.Addr
	State coherence.State
	Owner int16
	Busy  mem.Cycle
	Count int
	Over  bool
	IDs   string // exact identity-list order: iteration order is behavior
}

func dirSnapshot(s *Simulator) []dirSnap {
	var out []dirSnap
	for i := range s.tiles {
		tile := i
		s.tiles[i].dir.forEach(func(la mem.Addr, e *dirEntry) {
			out = append(out, dirSnap{
				Tile:  tile,
				LA:    la,
				State: e.state,
				Owner: e.owner,
				Busy:  e.busyUntil,
				Count: e.sharers.Count(),
				Over:  e.sharers.Overflowed(),
				IDs:   fmt.Sprint(e.sharers.Identified()),
			})
		})
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Tile != out[b].Tile {
			return out[a].Tile < out[b].Tile
		}
		return out[a].LA < out[b].LA
	})
	return out
}

func verSnapshot(v *verStore) map[mem.Addr]uint64 {
	out := map[mem.Addr]uint64{}
	v.forEach(func(la mem.Addr, val uint64) { out[la] = val })
	return out
}

func TestDifferentialFastVsReference(t *testing.T) {
	variants := []struct {
		name string
		mut  func(*Config)
	}{
		{"adaptive-ackwise2-limited2", func(c *Config) {}},
		{"adaptive-fullmap-complete", func(c *Config) {
			c.AckwisePointers = c.Cores
			c.ClassifierK = 0
		}},
		{"adaptive-timestamp", func(c *Config) { c.Protocol.UseTimestamp = true }},
		{"adaptive-victim-replication", func(c *Config) { c.VictimReplication = true }},
		{"mesi", func(c *Config) { c.ProtocolKind = ProtocolMESI }},
		{"dragon", func(c *Config) { c.ProtocolKind = ProtocolDragon }},
		{"dls", func(c *Config) { c.ProtocolKind = ProtocolDLS }},
		{"neat", func(c *Config) { c.ProtocolKind = ProtocolNeat }},
		{"hybrid", func(c *Config) { c.ProtocolKind = ProtocolHybrid }},
	}
	// Three seeds of the mixed program, plus the synchronization-dominated
	// shapes, where lock grants and barrier releases reshape the run queue
	// after almost every access.
	programs := []struct {
		name  string
		build func(*rand.Rand, int) [][]mem.Access
		seed  int64
	}{
		{"seed1", buildRandomProgram, 1},
		{"seed2", buildRandomProgram, 2},
		{"seed3", buildRandomProgram, 3},
		{"lock-heavy", buildLockHeavyProgram, 11},
		{"barrier-heavy", buildBarrierHeavyProgram, 11},
	}
	for _, v := range variants {
		for _, p := range programs {
			v, p := v, p
			t.Run(v.name+"/"+p.name, func(t *testing.T) {
				t.Parallel()
				cfg := diffConfig()
				v.mut(&cfg)
				prog := p.build(rand.New(rand.NewSource(p.seed)), cfg.Cores)

				fastSim, fastRes := runProgram(t, cfg, false, prog)
				refSim, refRes := runProgram(t, cfg, true, prog)

				if !reflect.DeepEqual(fastRes, refRes) {
					t.Errorf("results diverged:\nfast: %+v\nref:  %+v", fastRes, refRes)
				}
				if got, want := verSnapshot(&fastSim.golden), verSnapshot(&refSim.golden); !reflect.DeepEqual(got, want) {
					t.Errorf("golden store diverged: fast %d lines, ref %d lines", len(got), len(want))
				}
				if got, want := verSnapshot(&fastSim.dramVer), verSnapshot(&refSim.dramVer); !reflect.DeepEqual(got, want) {
					t.Errorf("DRAM version store diverged: fast %d lines, ref %d lines", len(got), len(want))
				}
				fastDir, refDir := dirSnapshot(fastSim), dirSnapshot(refSim)
				if !reflect.DeepEqual(fastDir, refDir) {
					n := len(fastDir)
					if len(refDir) < n {
						n = len(refDir)
					}
					for i := 0; i < n; i++ {
						if fastDir[i] != refDir[i] {
							t.Errorf("directory diverged at entry %d:\nfast: %+v\nref:  %+v",
								i, fastDir[i], refDir[i])
							break
						}
					}
					if len(fastDir) != len(refDir) {
						t.Errorf("directory sizes diverged: fast %d, ref %d", len(fastDir), len(refDir))
					}
				}
				// Both layouts already passed the in-run audit; re-run it on
				// the final states to pin the invariants explicitly.
				if err := fastSim.Audit(); err != nil {
					t.Errorf("fast core failed audit: %v", err)
				}
				if err := refSim.Audit(); err != nil {
					t.Errorf("reference core failed audit: %v", err)
				}
			})
		}
	}
}

// compareStates asserts two simulators that ran the same program are
// observably identical: every Result field, both version stores and the
// full directory state.
func compareStates(t *testing.T, label string, aSim *Simulator, aRes *Result, bSim *Simulator, bRes *Result) {
	t.Helper()
	if !reflect.DeepEqual(aRes, bRes) {
		t.Errorf("%s: results diverged:\n a: %+v\n b: %+v", label, aRes, bRes)
	}
	if got, want := verSnapshot(&aSim.golden), verSnapshot(&bSim.golden); !reflect.DeepEqual(got, want) {
		t.Errorf("%s: golden store diverged: %d vs %d lines", label, len(got), len(want))
	}
	if got, want := verSnapshot(&aSim.dramVer), verSnapshot(&bSim.dramVer); !reflect.DeepEqual(got, want) {
		t.Errorf("%s: DRAM version store diverged", label)
	}
	if got, want := dirSnapshot(aSim), dirSnapshot(bSim); !reflect.DeepEqual(got, want) {
		t.Errorf("%s: directory state diverged: %d vs %d entries", label, len(got), len(want))
	}
}

// TestResetReproducesFreshSimulator is the simulator-reuse equivalence
// property: running a program on a dirtied, Reset simulator must reproduce
// a fresh sim.New run bit for bit — for every protocol, including resets
// that cross protocol kinds and directory/classifier geometries (which
// force partial rebuilds) and repeated reuse of one instance. The
// experiment layer's worker pool rides entirely on this guarantee.
func TestResetReproducesFreshSimulator(t *testing.T) {
	protocols := []struct {
		name string
		mut  func(*Config)
	}{
		{"adaptive", func(c *Config) {}},
		{"adaptive-victim-replication", func(c *Config) { c.VictimReplication = true }},
		{"mesi", func(c *Config) { c.ProtocolKind = ProtocolMESI }},
		{"dragon", func(c *Config) { c.ProtocolKind = ProtocolDragon }},
		{"dls", func(c *Config) { c.ProtocolKind = ProtocolDLS }},
		{"neat", func(c *Config) { c.ProtocolKind = ProtocolNeat }},
		{"hybrid", func(c *Config) { c.ProtocolKind = ProtocolHybrid }},
	}
	for _, p := range protocols {
		p := p
		t.Run(p.name, func(t *testing.T) {
			t.Parallel()
			cfg := diffConfig()
			p.mut(&cfg)
			prog := buildRandomProgram(rand.New(rand.NewSource(5)), cfg.Cores)
			dirty := buildRandomProgram(rand.New(rand.NewSource(6)), cfg.Cores)

			freshSim, freshRes := runProgram(t, cfg, false, prog)

			// Dirty a simulator with a different program, then Reset and
			// replay the reference program on it.
			reused, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := reused.Run(trace.FromSlices(dirty)); err != nil {
				t.Fatal(err)
			}
			if err := reused.Reset(cfg); err != nil {
				t.Fatal(err)
			}
			res, err := reused.Run(trace.FromSlices(prog))
			if err != nil {
				t.Fatal(err)
			}
			compareStates(t, "same-config reset", reused, res, freshSim, freshRes)

			// Cross-config reset: detour through a different protocol kind,
			// directory width and classifier shape (rebuilding those parts),
			// then return to cfg. Still bit-identical.
			detour := diffConfig()
			detour.ProtocolKind = ProtocolMESI
			detour.ClassifierK = 0
			if p.name == "mesi" {
				detour.ProtocolKind = ProtocolDragon
			}
			if err := reused.Reset(detour); err != nil {
				t.Fatal(err)
			}
			if _, err := reused.Run(trace.FromSlices(dirty)); err != nil {
				t.Fatal(err)
			}
			if err := reused.Reset(cfg); err != nil {
				t.Fatal(err)
			}
			res2, err := reused.Run(trace.FromSlices(prog))
			if err != nil {
				t.Fatal(err)
			}
			compareStates(t, "cross-config reset", reused, res2, freshSim, freshRes)

			// Third consecutive reuse of the same instance.
			if err := reused.Reset(cfg); err != nil {
				t.Fatal(err)
			}
			res3, err := reused.Run(trace.FromSlices(prog))
			if err != nil {
				t.Fatal(err)
			}
			compareStates(t, "repeated reset", reused, res3, freshSim, freshRes)
		})
	}
}

// TestResetAcrossGeometries checks Reset rebuilds when the machine itself
// changes (core count, mesh, caches), matching fresh construction.
func TestResetAcrossGeometries(t *testing.T) {
	small := diffConfig()
	big := diffConfig()
	big.Cores, big.MeshWidth, big.MemControllers = 8, 4, 4
	big.L1DSizeKB, big.L2SizeKB = 2, 8

	progSmall := buildRandomProgram(rand.New(rand.NewSource(9)), small.Cores)
	progBig := buildRandomProgram(rand.New(rand.NewSource(10)), big.Cores)

	freshSim, freshRes := runProgram(t, big, false, progBig)

	s, err := New(small)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(trace.FromSlices(progSmall)); err != nil {
		t.Fatal(err)
	}
	if err := s.Reset(big); err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(trace.FromSlices(progBig))
	if err != nil {
		t.Fatal(err)
	}
	compareStates(t, "geometry reset", s, res, freshSim, freshRes)
}

// TestResetRejectsBadConfig pins the error path: a failed Reset reports
// the validation error.
func TestResetRejectsBadConfig(t *testing.T) {
	s, err := New(diffConfig())
	if err != nil {
		t.Fatal(err)
	}
	bad := diffConfig()
	bad.MeshWidth = 3 // does not divide 4 cores
	if err := s.Reset(bad); err == nil {
		t.Fatal("Reset accepted an invalid config")
	}
}

// buildLockHeavyProgram emits a synchronization-dominated workload: short
// critical sections on a handful of contended locks around accesses to a
// single shared page, with barriers between rounds. Lock grants and
// barrier releases reshape the run queue mid-run, so this program
// stresses the engine's queue handling rather than its L1 hit path.
func buildLockHeavyProgram(rng *rand.Rand, cores int) [][]mem.Access {
	const rounds = 4
	dataBase := mem.Addr(1) << 23
	randWord := func() mem.Addr {
		return dataBase + mem.Addr(rng.Intn(mem.PageBytes/mem.WordBytes))*mem.WordBytes
	}
	progs := make([][]mem.Access, cores)
	for r := 0; r < rounds; r++ {
		for c := 0; c < cores; c++ {
			for i := 0; i < 40; i++ {
				id := uint64(1 + rng.Intn(3))
				kind := mem.Read
				if rng.Intn(2) == 0 {
					kind = mem.Write
				}
				progs[c] = append(progs[c],
					mem.Access{Kind: mem.Lock, Addr: mem.Addr(id)},
					mem.Access{Kind: kind, Addr: randWord(), Gap: uint32(rng.Intn(3))},
					mem.Access{Kind: mem.Unlock, Addr: mem.Addr(id)})
			}
			progs[c] = append(progs[c], mem.Access{Kind: mem.Barrier, Addr: mem.Addr(7000 + r)})
		}
	}
	return progs
}

// buildBarrierHeavyProgram alternates tiny access bursts with global
// barriers, so cores spend most of the run parking and releasing, with the
// heap reshaped constantly.
func buildBarrierHeavyProgram(rng *rand.Rand, cores int) [][]mem.Access {
	const rounds = 40
	dataBase := mem.Addr(1) << 24
	progs := make([][]mem.Access, cores)
	for r := 0; r < rounds; r++ {
		for c := 0; c < cores; c++ {
			n := 1 + rng.Intn(4)
			for i := 0; i < n; i++ {
				kind := mem.Read
				if rng.Intn(3) == 0 {
					kind = mem.Write
				}
				a := dataBase + mem.Addr(rng.Intn(4*mem.PageBytes/mem.WordBytes))*mem.WordBytes
				progs[c] = append(progs[c], mem.Access{Kind: kind, Addr: a, Gap: uint32(rng.Intn(6))})
			}
			progs[c] = append(progs[c], mem.Access{Kind: mem.Barrier, Addr: mem.Addr(8000 + r)})
		}
	}
	return progs
}

// engineProtocols are the protocol configurations that
// TestEngineShardedVsGeneric and TestNextOnlyStreamsMatchChunked
// replay; TestEngineProtocolsCoverEveryKind checks they name every
// registered kind.
var engineProtocols = []struct {
	name string
	mut  func(*Config)
}{
	{"adaptive", func(c *Config) {}},
	{"adaptive-timestamp", func(c *Config) { c.Protocol.UseTimestamp = true }},
	{"adaptive-victim-replication", func(c *Config) { c.VictimReplication = true }},
	{"mesi", func(c *Config) { c.ProtocolKind = ProtocolMESI }},
	{"dragon", func(c *Config) { c.ProtocolKind = ProtocolDragon }},
	{"dls", func(c *Config) { c.ProtocolKind = ProtocolDLS }},
	{"neat", func(c *Config) { c.ProtocolKind = ProtocolNeat }},
	{"hybrid", func(c *Config) { c.ProtocolKind = ProtocolHybrid }},
}

// programShapes are the program builders the engine tests replay.
var programShapes = []struct {
	name  string
	build func(*rand.Rand, int) [][]mem.Access
}{
	{"mixed", buildRandomProgram},
	{"lock-heavy", buildLockHeavyProgram},
	{"barrier-heavy", buildBarrierHeavyProgram},
}

// TestEngineShardedVsGeneric pins where simulation work is spread across
// goroutines now that one simulation is never split into shards: only
// whole, independent simulators run side by side (the experiment layer's
// runJobs). For every protocol, geometry and workload shape, simulators
// replaying the same program concurrently must each reproduce a
// reference-core run (newReference) bit for bit. Run with -race in CI, this
// is also the proof that independent simulators share no mutable state.
func TestEngineShardedVsGeneric(t *testing.T) {
	geometries := []struct {
		name string
		mut  func(*Config)
	}{
		{"4core-2x2", func(c *Config) {}},
		{"8core-4x2", func(c *Config) {
			c.Cores, c.MeshWidth, c.MemControllers = 8, 4, 4
		}},
		{"2core-2x1", func(c *Config) {
			c.Cores, c.MeshWidth, c.MemControllers = 2, 2, 2
		}},
	}
	const concurrent = 2
	for _, p := range engineProtocols {
		for _, g := range geometries {
			for _, w := range programShapes {
				p, g, w := p, g, w
				t.Run(p.name+"/"+g.name+"/"+w.name, func(t *testing.T) {
					t.Parallel()
					cfg := diffConfig()
					g.mut(&cfg)
					p.mut(&cfg)
					prog := w.build(rand.New(rand.NewSource(11)), cfg.Cores)

					sims := make([]*Simulator, concurrent)
					results := make([]*Result, concurrent)
					errs := make([]error, concurrent)
					var wg sync.WaitGroup
					for i := range sims {
						wg.Add(1)
						go func(i int) {
							defer wg.Done()
							s, err := New(cfg)
							if err != nil {
								errs[i] = err
								return
							}
							sims[i] = s
							results[i], errs[i] = s.Run(trace.FromSlices(prog))
						}(i)
					}
					wg.Wait()
					refSim, refRes := runProgram(t, cfg, true, prog)
					for i := range sims {
						if errs[i] != nil {
							t.Fatalf("concurrent simulator %d: %v", i, errs[i])
						}
						compareStates(t, fmt.Sprintf("concurrent simulator %d vs reference", i),
							sims[i], results[i], refSim, refRes)
					}
				})
			}
		}
	}
}

// TestEngineProtocolsCoverEveryKind pins that every registered protocol is
// named in engineProtocols, so TestEngineShardedVsGeneric and
// TestNextOnlyStreamsMatchChunked replay it.
func TestEngineProtocolsCoverEveryKind(t *testing.T) {
	covered := map[ProtocolKind]bool{}
	for _, p := range engineProtocols {
		cfg := diffConfig()
		p.mut(&cfg)
		covered[cfg.protocolKind()] = true
	}
	for _, kind := range ProtocolKinds() {
		if !covered[kind] {
			t.Errorf("%s is missing from TestEngineShardedVsGeneric's protocol table", kind)
		}
	}
}

// nextOnly hides a stream's NextChunk, as a stream that a caller
// implements with Next alone does: the engine must then fetch through
// Next, one access at a time.
type nextOnly struct{ trace.Stream }

// TestNextOnlyStreamsMatchChunked pins the public Stream contract for
// streams without NextChunk: for every protocol and program shape
// (including lock- and barrier-heavy ones), a run fed through Next alone
// must be bit-identical to the same program fed in chunks.
func TestNextOnlyStreamsMatchChunked(t *testing.T) {
	for _, p := range engineProtocols {
		for _, w := range programShapes {
			p, w := p, w
			t.Run(p.name+"/"+w.name, func(t *testing.T) {
				t.Parallel()
				cfg := diffConfig()
				p.mut(&cfg)
				prog := w.build(rand.New(rand.NewSource(13)), cfg.Cores)
				chunkSim, chunkRes := runProgram(t, cfg, false, prog)
				streams := trace.FromSlices(prog)
				for i, st := range streams {
					streams[i] = nextOnly{st}
					if _, ok := streams[i].(trace.ChunkStream); ok {
						t.Fatal("nextOnly still offers NextChunk")
					}
				}
				s, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				res, err := s.Run(streams)
				if err != nil {
					t.Fatal(err)
				}
				compareStates(t, "Next-only vs chunked", s, res, chunkSim, chunkRes)
			})
		}
	}
}

// TestCheckValuesNeutral pins that the golden-store functional checker is
// observationally pure: running with CheckValues off must produce the
// exact same Result as with it on, for every protocol. The experiment
// layer relies on this to disable the checker (and its per-store version
// bookkeeping) in benchmark runs.
func TestCheckValuesNeutral(t *testing.T) {
	protocols := []struct {
		name string
		mut  func(*Config)
	}{
		{"adaptive", func(c *Config) {}},
		{"adaptive-victim-replication", func(c *Config) { c.VictimReplication = true }},
		{"mesi", func(c *Config) { c.ProtocolKind = ProtocolMESI }},
		{"dragon", func(c *Config) { c.ProtocolKind = ProtocolDragon }},
		{"dls", func(c *Config) { c.ProtocolKind = ProtocolDLS }},
		{"neat", func(c *Config) { c.ProtocolKind = ProtocolNeat }},
		{"hybrid", func(c *Config) { c.ProtocolKind = ProtocolHybrid }},
	}
	for _, p := range protocols {
		p := p
		t.Run(p.name, func(t *testing.T) {
			t.Parallel()
			cfg := diffConfig()
			p.mut(&cfg)
			prog := buildRandomProgram(rand.New(rand.NewSource(13)), cfg.Cores)

			cfg.CheckValues = true
			_, checked := runProgram(t, cfg, false, prog)
			cfg.CheckValues = false
			_, unchecked := runProgram(t, cfg, false, prog)
			if !reflect.DeepEqual(checked, unchecked) {
				t.Errorf("CheckValues changed the result:\n on:  %+v\n off: %+v", checked, unchecked)
			}
		})
	}
}

// TestDifferentialExercisesProtocolMachinery guards the differential test's
// coverage: the randomized program on the shrunken machine must actually
// drive the paths the flat core rewrote — evictions at both levels,
// invalidations, ACKwise broadcast overflow, page reclassifications and
// remote word accesses — otherwise the equivalence proof is vacuous.
func TestDifferentialExercisesProtocolMachinery(t *testing.T) {
	cfg := diffConfig()
	prog := buildRandomProgram(rand.New(rand.NewSource(1)), cfg.Cores)
	_, res := runProgram(t, cfg, false, prog)
	if res.Invalidations == 0 {
		t.Error("no invalidations exercised")
	}
	if res.BroadcastInvalidations == 0 {
		t.Error("no ACKwise overflow broadcasts exercised")
	}
	if res.Reclassifications == 0 {
		t.Error("no R-NUCA page reclassifications exercised")
	}
	if res.WordReads+res.WordWrites == 0 {
		t.Error("no remote word accesses exercised")
	}
	if res.L1D.TotalMisses() == 0 || res.DRAMReads == 0 {
		t.Error("no misses or DRAM traffic exercised")
	}
}
