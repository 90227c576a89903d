package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"lacc/internal/mem"
)

// copyVariant is one machine configuration TestMachineCopyFrom forks.
type copyVariant struct {
	name    string
	kind    ProtocolKind
	ackwise int // directory pointer override; 0 keeps the default
	cores   int
	// classifierK > 0 selects the Limited-k classifier (with more cores
	// than k); vr enables victim replication (adaptive only) at PCT 1, its
	// baseline pairing, with a longer, read-heavy walk: at PCT 4 or with
	// every other access a write, the walk's victims are remote-mode or
	// dirty and no replica forms.
	classifierK int
	vr          bool
}

// copyVariants are the model checker's seven variants (2 cores, as
// check.Bound builds them) plus two that reach the remaining copied
// state: Limited-k classifiers and victim-replication replicas.
var copyVariants = []copyVariant{
	{name: "adaptive", kind: ProtocolAdaptive, cores: 2},
	{name: "adaptive-ackwise1", kind: ProtocolAdaptive, ackwise: 1, cores: 2},
	{name: "mesi", kind: ProtocolMESI, cores: 2},
	{name: "dragon", kind: ProtocolDragon, cores: 2},
	{name: "dls", kind: ProtocolDLS, cores: 2},
	{name: "neat", kind: ProtocolNeat, cores: 2},
	{name: "hybrid", kind: ProtocolHybrid, cores: 2},
	{name: "adaptive-limited2", kind: ProtocolAdaptive, cores: 4, classifierK: 2},
	{name: "adaptive-vr", kind: ProtocolAdaptive, cores: 2, vr: true},
}

// config mirrors check.Bound: a cores×1 mesh with one memory controller,
// value checking on, utilization histograms off, the timestamp classifier
// off and a 4-line code footprint.
func (v copyVariant) config() Config {
	cfg := Default()
	cfg.Cores = v.cores
	cfg.MeshWidth = v.cores
	cfg.MemControllers = 1
	cfg.ProtocolKind = v.kind
	if v.ackwise > 0 {
		cfg.AckwisePointers = v.ackwise
	}
	if v.classifierK > 0 {
		cfg.ClassifierK = v.classifierK
	}
	cfg.VictimReplication = v.vr
	if v.vr {
		cfg.Protocol.PCT = 1
	}
	cfg.CheckValues = true
	cfg.TrackUtilization = false
	cfg.Protocol.UseTimestamp = false
	cfg.CodeLines = 4
	return cfg
}

var copyFaults = []struct {
	name string
	f    Faults
}{
	{"healthy", Faults{}},
	{"drop-invalidations", Faults{DropInvalidations: true}},
	{"drop-updates", Faults{DropUpdates: true}},
	{"drop-word-writes", Faults{DropWordWrites: true}},
}

// copyAction is one random-walk step.
type copyAction struct {
	core int
	kind mem.AccessKind
	addr mem.Addr
}

// stepRecover steps m and returns the recovered panic text, if any.
func stepRecover(m *Machine, a copyAction) (msg string) {
	defer func() {
		if p := recover(); p != nil {
			msg = fmt.Sprint(p)
		}
	}()
	m.Step(a.core, a.kind, a.addr, 0)
	return ""
}

// machineView is what TestMachineCopyFrom compares: the snapshot of the
// given lines and every core's clock.
type machineView struct {
	snap   []LineSnapshot
	clocks []mem.Cycle
}

func viewOf(m *Machine, lines []mem.Addr) machineView {
	v := machineView{snap: m.Snapshot(nil, lines)}
	for c := 0; c < m.Cores(); c++ {
		v.clocks = append(v.clocks, m.Clock(c))
	}
	return v
}

// TestMachineCopyFrom: a machine forked with CopyFrom and then stepped is
// indistinguishable from a machine replayed from new through the same
// accesses — same snapshot of every data and code line, same core clocks,
// same result counters and the same audit outcome — and stepping the fork
// leaves its source untouched. Each fork's destination first runs further
// on lines of its own, so it holds sets and table blocks the source does
// not, and each step's source is the previous step's fork, so copies of
// copies are checked too. The walk's lines conflict in one L1-D set and
// span several pages, so it reaches L1 evictions (and replicas under
// victim replication), R-NUCA page moves and sharer overflow. After every
// clean step no victim-replication drop may be left in flight: CopyFrom
// does not copy one.
func TestMachineCopyFrom(t *testing.T) {
	for vi, v := range copyVariants {
		steps, writeOneIn := 80, 2
		if v.vr {
			steps, writeOneIn = 400, 4
		}
		for fi, fc := range copyFaults {
			t.Run(v.name+"/"+fc.name, func(t *testing.T) {
				cfg := v.config()
				newM := func() *Machine {
					m, err := NewMachineWithFaults(cfg, fc.f)
					if err != nil {
						t.Fatal(err)
					}
					return m
				}
				ref, walked, spare := newM(), newM(), newM()

				// Walk lines: ways+1 lines in one L1-D set (8 KB apart, one
				// page each) plus the first line's neighbour. Scribble
				// lines share those sets but never appear in the walk.
				stride := mem.Addr(ref.s.tiles[0].l1d.Sets() * mem.LineBytes)
				var walk, scribble []mem.Addr
				for i := 0; i <= cfg.L1DWays; i++ {
					walk = append(walk, 0x100000+mem.Addr(i)*stride)
					scribble = append(scribble, 0x900000+mem.Addr(i)*stride)
				}
				walk = append(walk, 0x100000+mem.LineBytes)
				scribble = append(scribble, 0x900000+mem.LineBytes)
				var code []mem.Addr
				for i := 0; i < cfg.CodeLines; i++ {
					code = append(code, codeBase+mem.Addr(i)*mem.LineBytes)
				}
				seen := append(append(append([]mem.Addr{}, walk...), scribble...), code...)

				rng := rand.New(rand.NewSource(int64(1 + vi*len(copyFaults) + fi)))
				pick := func(lines []mem.Addr) copyAction {
					a := copyAction{core: rng.Intn(cfg.Cores), kind: mem.Read, addr: lines[rng.Intn(len(lines))]}
					if rng.Intn(writeOneIn) == 0 {
						a.kind = mem.Write
					}
					return a
				}
				for k := 0; k < steps; k++ {
					// The destination runs further first: a few accesses to
					// lines the walk never touches (a seeded fault may make
					// one panic; CopyFrom must overwrite whatever is left).
					for i := 0; i < 3; i++ {
						if a := pick(scribble); stepRecover(spare, a) == "" {
							checkNoReplicaDrop(t, k, a, spare)
						}
					}
					before := viewOf(walked, seen)
					spare.CopyFrom(walked)
					a := pick(walk)
					gotMsg, wantMsg := stepRecover(spare, a), stepRecover(ref, a)
					if gotMsg != wantMsg {
						t.Fatalf("step %d %+v: fork panicked %q, replay %q", k, a, gotMsg, wantMsg)
					}
					if after := viewOf(walked, seen); !reflect.DeepEqual(after, before) {
						t.Fatalf("step %d %+v: stepping the fork changed its source", k, a)
					}
					if got, want := viewOf(spare, seen), viewOf(ref, seen); !reflect.DeepEqual(got, want) {
						t.Fatalf("step %d %+v: fork and replay differ\nfork:   %+v\nreplay: %+v", k, a, got, want)
					}
					if wantMsg != "" {
						return // a seeded fault fired; the walk ends here
					}
					checkNoReplicaDrop(t, k, a, spare)
					checkNoReplicaDrop(t, k, a, ref)
					if got, want := spare.s.collect(), ref.s.collect(); !reflect.DeepEqual(got, want) {
						t.Fatalf("step %d %+v: result counters differ\nfork:   %+v\nreplay: %+v", k, a, got, want)
					}
					if got, want := fmt.Sprint(spare.Audit()), fmt.Sprint(ref.Audit()); got != want {
						t.Fatalf("step %d %+v: audit %s, replay %s", k, a, got, want)
					}
					walked, spare = spare, walked
				}
			})
		}
	}
}

// checkNoReplicaDrop fails unless the victim-replication drop a write
// miss carries to adaptive's resolve was cleared by the step that set it.
// The directory machine is not copied by CopyFrom, so a drop left in
// flight would leak into whatever the machine steps next.
func checkNoReplicaDrop(t *testing.T, k int, a copyAction, m *Machine) {
	t.Helper()
	if d := m.s.proto; d.replicaDropped || d.replicaUtil != 0 {
		t.Fatalf("step %d %+v: replica drop still in flight (dropped %v, util %d)",
			k, a, d.replicaDropped, d.replicaUtil)
	}
}
