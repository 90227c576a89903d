package sim

import (
	"errors"
	"fmt"

	"lacc/internal/cache"
	"lacc/internal/coherence"
	"lacc/internal/core"
	"lacc/internal/dram"
	"lacc/internal/energy"
	"lacc/internal/mem"
	"lacc/internal/network"
	"lacc/internal/nuca"
	"lacc/internal/stats"
	"lacc/internal/trace"
)

// L1 line coherence states (cache.Line.State).
const (
	lineS uint8 = iota + 1
	lineE
	lineM
	// lineReplica marks a victim-replication replica in a local L2 slice
	// (Section 2.1's Victim Replication baseline, enabled by
	// Config.VictimReplication). Replicas are read-only copies whose tile
	// remains a registered sharer at the line's home directory.
	lineReplica
)

// Per-(core, line) history used for the paper's miss-type classification
// (Section 4.4). The zero value means the line was never seen.
const (
	hNever uint8 = iota
	hCached
	hEvicted
	hInvalidated
	hRemote
)

// codeBase places the synthetic instruction region far from any data the
// workload allocators hand out.
const codeBase mem.Addr = 1 << 40

// dirEntry is a directory entry integrated with an L2 line: MESI state,
// ACKwise sharer list and the locality classifier of the paper. Entries are
// stored by value inside the flat directory table (see flat.go), whose
// arenas hold the sharer identities and, for the classifying kinds
// (adaptive and hybrid), the classifier slots; otherwise cls has none.
type dirEntry struct {
	state     coherence.State
	owner     int16
	sharers   coherence.SharerSet
	busyUntil mem.Cycle
	cls       core.Classifier
}

// tile is one core's slice of the machine.
type tile struct {
	l1i *cache.Cache
	l1d *cache.Cache
	l2  *cache.Cache
	dir tileDir
}

// coreState is one core's simulation context.
type coreState struct {
	id     int
	now    mem.Cycle
	stream trace.Stream
	// chunks is stream's batch interface when supported; buf/bufIdx hold
	// the in-flight chunk so the run loop consumes accesses with a slice
	// index instead of a dynamic dispatch each.
	chunks trace.ChunkStream
	buf    []mem.Access
	bufIdx int
	bd     stats.TimeBreakdown
	l1d    stats.MissStats

	l1iHits   uint64
	l1iMisses uint64

	history histStore

	done bool

	// Synthetic instruction stream state. The fixed-point accumulators
	// (fetch64, energy8) carry the fetch walk when Simulator.fetch8 >= 0;
	// the float pair is the fallback formulation (see ifetch.go).
	pc        int
	fetchAcc  float64 // pending instruction-line fetches
	energyAcc float64 // pending fractional L1I energy events
	fetch64   int64   // pending line fetches, in 64ths of a line
	energy8   int64   // pending energy events, in 8ths of an instruction
	// l1iResident counts resident code lines; once it reaches
	// Config.CodeLines the L1-I can no longer miss (l1iWarm) and the
	// fixed-point fetch walk short-circuits to hit counting.
	l1iResident int
	l1iWarm     bool

	// Synchronization state.
	waitingBarrier bool
	barrierArrive  mem.Cycle
}

type lockWaiter struct {
	core    int
	arrival mem.Cycle
}

type lockState struct {
	held  bool
	owner int
	queue []lockWaiter
}

// Simulator executes per-core access streams against the modeled machine.
// Construct with New; a Simulator runs one workload per Run. To run
// another workload, call Reset(cfg) first — it restores the
// freshly-constructed state while reusing the allocated tables, so a
// pooled Simulator amortizes its arenas across many runs.
type Simulator struct {
	cfg   Config
	proto *dirProtocol
	mesh  *network.Mesh
	dram  *dram.Model
	nuca  *nuca.Placement
	tiles []tile
	cores []coreState

	// reference selects the map-backed storage layout (the pre-flat core)
	// instead of the open-addressed tables and arenas of flat.go. The two
	// layouts are behaviorally identical; the reference core exists so
	// differential tests can replay identical streams through both and
	// compare every result bit (see differential_test.go).
	reference bool

	// faults are the seeded protocol defects for checker self-tests
	// (machine.go). Deliberately outside Config — experiment fingerprints
	// never observe them — and preserved across Reset.
	faults Faults

	golden  verStore // committed version per line
	dramVer verStore // version resident in DRAM

	// fetch8 is Config.FetchPerOp in eighths of an instruction when the
	// fixed-point instruction-fetch mode applies, -1 otherwise (ifetch.go).
	fetch8 int64

	locks     map[uint64]*lockState
	barrierID mem.Addr
	barrierN  int

	counters

	// Transaction scratch, reused to keep the hot path allocation-free:
	// idScratch is a free-list of sharer-identity snapshots taken before
	// mutating multicast loops; the broadcast buffers hold per-tile arrival
	// times for the two (non-nesting) broadcast sites; selfScratch holds
	// the lines syncSelfInvalidate drops.
	idScratch   [][]int16
	bcastInval  []mem.Cycle
	bcastEvict  []mem.Cycle
	selfScratch []cache.Line

	runQ coreQueue
}

// counters are a run's statistics: the energy meter, the utilization
// histograms and the protocol activity counts that collect reports. They
// are one value, so Reset zeroes them and copyFrom copies them in one
// assignment.
type counters struct {
	meter     energy.Meter
	invalHist stats.UtilizationHistogram
	evictHist stats.UtilizationHistogram

	promotions    uint64
	demotions     uint64
	wordReads     uint64
	wordWrites    uint64
	invalidations uint64
	bcastInvals   uint64
	selfInvals    uint64

	replicaHits      uint64
	replicaInserts   uint64
	replicaEvictions uint64

	updates uint64 // per-sharer word updates pushed (Dragon, hybrid)
}

// New builds a simulator for cfg.
func New(cfg Config) (*Simulator, error) {
	return newSimulator(cfg, false)
}

// newReference builds a simulator using the legacy map-backed storage
// layout. It exists for the differential tests only.
func newReference(cfg Config) (*Simulator, error) {
	return newSimulator(cfg, true)
}

func newSimulator(cfg Config, reference bool) (*Simulator, error) {
	s := &Simulator{reference: reference}
	if err := s.Reset(cfg); err != nil {
		return nil, err
	}
	return s, nil
}

// Reset re-initializes the simulator for cfg so the next Run behaves
// exactly as on a freshly constructed Simulator — same results bit for bit
// — while reusing the allocated storage wherever the old and new
// configurations agree: the flat directory/history/version tables and
// their arenas, cache tag arrays, mesh and DRAM queues are cleared in place
// instead of reallocated. Components whose geometry changed are rebuilt.
// The experiment layer's worker pool calls this between jobs; sweeps
// differ only in protocol parameters, so steady-state job turnover
// allocates almost nothing.
func (s *Simulator) Reset(cfg Config) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	old := s.cfg
	fresh := s.tiles == nil

	meshCfg := network.Config{
		Width:      cfg.MeshWidth,
		Height:     cfg.Cores / cfg.MeshWidth,
		HopLatency: cfg.HopLatency,
	}
	if s.mesh != nil && s.mesh.Matches(meshCfg) {
		s.mesh.Reset()
	} else {
		s.mesh = network.New(meshCfg)
	}

	if s.nuca != nil && s.nuca.Matches(cfg.Cores, cfg.MeshWidth) {
		s.nuca.Reset()
	} else {
		s.nuca = nuca.New(cfg.Cores, cfg.MeshWidth)
	}

	dramCfg := dram.Config{
		Controllers:   cfg.MemControllers,
		LatencyCycles: cfg.DRAMLatencyCycles,
		BytesPerCycle: cfg.DRAMBytesPerCycle,
		Tiles:         dram.DefaultTiles(cfg.MemControllers, cfg.MeshWidth, cfg.Cores/cfg.MeshWidth),
	}
	if s.dram != nil && s.dram.Matches(dramCfg) {
		s.dram.Reset()
	} else {
		s.dram = dram.New(dramCfg)
	}

	if s.golden.flat == nil && s.golden.ref == nil {
		s.golden = newVerStore(s.reference)
		s.dramVer = newVerStore(s.reference)
	} else {
		s.golden.clear()
		s.dramVer.clear()
	}

	proto := newProtocol(s, cfg)

	// The cache arrays and the directory tables have independent reuse
	// conditions: a sweep flipping between ACKwise-p and full-map variants,
	// or between classifying and classifier-free kinds, changes only the
	// directory entry's shape, so the (much larger) tag arrays are kept and
	// only the directories are recarved.
	sameCaches := !fresh && len(s.tiles) == cfg.Cores &&
		old.L1ISizeKB == cfg.L1ISizeKB && old.L1IWays == cfg.L1IWays &&
		old.L1DSizeKB == cfg.L1DSizeKB && old.L1DWays == cfg.L1DWays &&
		old.L2SizeKB == cfg.L2SizeKB && old.L2Ways == cfg.L2Ways
	sameDir := sameCaches && s.proto.pointers == proto.pointers && s.proto.clsSlots == proto.clsSlots
	if sameCaches {
		for i := range s.tiles {
			t := &s.tiles[i]
			t.l1i.Reset()
			t.l1d.Reset()
			t.l2.Reset()
			if sameDir {
				t.dir.clear()
			} else {
				t.dir.reshape(proto.pointers, proto.clsSlots, cfg.Cores)
			}
		}
	} else {
		s.tiles = make([]tile, cfg.Cores)
		for i := range s.tiles {
			s.tiles[i] = tile{
				l1i: cache.New(cfg.L1ISizeKB*1024, cfg.L1IWays),
				l1d: cache.New(cfg.L1DSizeKB*1024, cfg.L1DWays),
				l2:  cache.New(cfg.L2SizeKB*1024, cfg.L2Ways),
				dir: newTileDir(proto.pointers, proto.clsSlots, cfg.Cores, s.reference),
			}
		}
	}

	if s.locks == nil {
		s.locks = make(map[uint64]*lockState)
	} else {
		clear(s.locks)
	}
	s.barrierID, s.barrierN = 0, 0

	s.counters = counters{}

	s.cfg = cfg
	s.fetch8 = fetchFixedPoint(cfg.FetchPerOp)
	s.proto = proto
	return nil
}

// Run executes one stream per core to completion and returns the aggregated
// result. The streams are closed before returning. Run may be called again
// only after Reset.
func (s *Simulator) Run(streams []trace.Stream) (*Result, error) {
	// Close the streams on every exit path, including the arity error
	// below: spilled-corpus streams pin refcounted file descriptors that
	// would otherwise leak when a caller miscounts cores.
	defer func() {
		for _, st := range streams {
			st.Close()
		}
	}()
	if len(streams) != s.cfg.Cores {
		return nil, fmt.Errorf("sim: %d streams for %d cores", len(streams), s.cfg.Cores)
	}
	s.initCores(streams)
	s.runQ.reset(s.cfg.Cores)
	for i := range s.cores {
		if err := s.runQ.push(s.cores[i].now, int32(i)); err != nil {
			return nil, err
		}
	}

	if err := s.runEngine(); err != nil {
		return nil, err
	}
	if err := s.checkQuiescence(); err != nil {
		return nil, err
	}
	if s.cfg.CheckValues {
		if err := s.Audit(); err != nil {
			return nil, err
		}
	}
	return s.collect(), nil
}

// initCores rebuilds the per-core contexts for a run over streams, one per
// core. The checker's Machine passes nil and feeds accesses through Step
// instead. Each core's history table is kept (cleared) across runs: the
// per-core flat table is one of the larger per-run allocations.
func (s *Simulator) initCores(streams []trace.Stream) {
	if len(s.cores) != s.cfg.Cores {
		s.cores = make([]coreState, s.cfg.Cores)
		for i := range s.cores {
			s.cores[i] = coreState{history: newHistStore(s.reference)}
		}
	}
	for i := range s.cores {
		h := s.cores[i].history
		h.clear()
		s.cores[i] = coreState{id: i, history: h}
		if streams != nil {
			s.cores[i].stream = streams[i]
			s.cores[i].chunks, _ = streams[i].(trace.ChunkStream)
		}
	}
}

// refill is the slow path of the engine's trace fetch, taken when the
// in-flight chunk is used up: it fetches the next chunk from a
// batch-capable stream, or one access from a plain stream.
func (c *coreState) refill() (mem.Access, bool) {
	if c.chunks != nil {
		chunk, ok := c.chunks.NextChunk()
		if !ok {
			return mem.Access{}, false
		}
		c.buf, c.bufIdx = chunk, 1
		return chunk[0], true
	}
	return c.stream.Next()
}

// checkQuiescence verifies every core terminated (catches workload bugs
// such as unmatched barriers or leaked locks).
func (s *Simulator) checkQuiescence() error {
	for i := range s.cores {
		if !s.cores[i].done {
			return fmt.Errorf("sim: core %d deadlocked (barrier wait=%v)", i, s.cores[i].waitingBarrier)
		}
	}
	for id, l := range s.locks {
		if l.held || len(l.queue) > 0 {
			return fmt.Errorf("sim: lock %d leaked (held=%v, %d waiters)", id, l.held, len(l.queue))
		}
	}
	return nil
}

// barrierArrive parks a core at a barrier, releasing everyone when the last
// active core arrives. All cores must agree on the barrier identifier.
func (s *Simulator) barrierArrive(c *coreState, id mem.Addr) error {
	if s.barrierN == 0 {
		s.barrierID = id
	} else if s.barrierID != id {
		panic(fmt.Sprintf("sim: barrier mismatch: core %d at %d, barrier %d in progress",
			c.id, id, s.barrierID))
	}
	c.waitingBarrier = true
	c.barrierArrive = c.now
	s.barrierN++
	return s.maybeReleaseBarrier()
}

func (s *Simulator) activeCores() int {
	n := 0
	for i := range s.cores {
		if !s.cores[i].done {
			n++
		}
	}
	return n
}

func (s *Simulator) maybeReleaseBarrier() error {
	if s.barrierN == 0 || s.barrierN < s.activeCores() {
		return nil
	}
	var latest mem.Cycle
	for i := range s.cores {
		if s.cores[i].waitingBarrier && s.cores[i].barrierArrive > latest {
			latest = s.cores[i].barrierArrive
		}
	}
	release := latest + mem.Cycle(s.cfg.BarrierLatency)
	for i := range s.cores {
		c := &s.cores[i]
		if !c.waitingBarrier {
			continue
		}
		c.bd.Sync += float64(release - c.barrierArrive)
		c.now = release
		c.waitingBarrier = false
		if err := s.runQ.push(c.now, int32(i)); err != nil {
			return err
		}
	}
	s.barrierN = 0
	return nil
}

// lockAcquire grants a free lock immediately (charging the acquisition
// round trip) or parks the core in the lock's FIFO queue.
func (s *Simulator) lockAcquire(c *coreState, id uint64) error {
	l := s.locks[id]
	if l == nil {
		l = &lockState{}
		s.locks[id] = l
	}
	if !l.held {
		l.held = true
		l.owner = c.id
		lat := mem.Cycle(s.cfg.LockLatency)
		c.bd.Sync += float64(lat)
		c.now += lat
		return s.runQ.push(c.now, int32(c.id))
	}
	l.queue = append(l.queue, lockWaiter{core: c.id, arrival: c.now})
	return nil
}

// lockRelease hands the lock to the next waiter (FIFO) or frees it.
func (s *Simulator) lockRelease(c *coreState, id uint64) error {
	l := s.locks[id]
	if l == nil || !l.held || l.owner != c.id {
		panic(fmt.Sprintf("sim: core %d released lock %d it does not hold", c.id, id))
	}
	c.now++ // the releasing store
	if len(l.queue) == 0 {
		l.held = false
		return nil
	}
	w := l.queue[0]
	l.queue = l.queue[1:]
	l.owner = w.core
	grant := c.now
	if w.arrival > grant {
		grant = w.arrival
	}
	grant += mem.Cycle(s.cfg.LockLatency)
	wc := &s.cores[w.core]
	wc.bd.Sync += float64(grant - w.arrival)
	wc.now = grant
	return s.runQ.push(wc.now, int32(w.core))
}

// collect aggregates per-core statistics into a Result.
func (s *Simulator) collect() *Result {
	r := &Result{
		Protocol:               string(s.cfg.protocolKind()),
		Promotions:             s.promotions,
		Demotions:              s.demotions,
		WordReads:              s.wordReads,
		WordWrites:             s.wordWrites,
		Invalidations:          s.invalidations,
		BroadcastInvalidations: s.bcastInvals,
		SelfInvalidations:      s.selfInvals,
		InvalidationUtil:       s.invalHist,
		EvictionUtil:           s.evictHist,
		RouterFlits:            s.mesh.RouterFlits,
		LinkFlits:              s.mesh.LinkFlits,
		Messages:               s.mesh.Messages,
		DRAMReads:              s.dram.Reads,
		DRAMWrites:             s.dram.Writes,
		DRAMQueueCycles:        s.dram.QueueCycles,
		PrivatePages:           s.nuca.PrivatePages,
		SharedPages:            s.nuca.SharedPages,
		Reclassifications:      s.nuca.Reclassifications,
		ReplicaHits:            s.replicaHits,
		ReplicaInserts:         s.replicaInserts,
		ReplicaEvictions:       s.replicaEvictions,
		UpdateWrites:           s.updates,
	}
	r.PerCore = make([]CoreStats, len(s.cores))
	for i := range s.cores {
		c := &s.cores[i]
		if c.now > r.CompletionCycles {
			r.CompletionCycles = c.now
		}
		r.Time.Add(c.bd)
		r.L1D.Add(c.l1d)
		r.L1IHits += c.l1iHits
		r.L1IMisses += c.l1iMisses
		r.PerCore[i] = CoreStats{
			Finish:  c.now,
			Time:    c.bd,
			L1D:     c.l1d,
			L1IHits: c.l1iHits, L1IMisses: c.l1iMisses,
		}
	}
	r.DataAccesses = r.L1D.Accesses()
	s.meter.RouterFlits = s.mesh.RouterFlits
	s.meter.LinkFlits = s.mesh.LinkFlits
	r.Meter = s.meter
	r.Energy = s.meter.Breakdown(s.cfg.Energy)
	return r
}

// goldenWrite commits a write to the golden store and returns the new
// version. The golden and DRAM version stores exist purely for the
// functional checker (checkVersion and the Audit): versions never feed
// timing, traffic, energy or any Result field, so when the checker is off
// the stores are bypassed entirely — saving a hash-table update on every
// store and every write-back in the hot path. TestCheckValuesNeutral pins
// the bit-identity of results across the two modes.
func (s *Simulator) goldenWrite(la mem.Addr) uint64 {
	if !s.cfg.CheckValues {
		return 0
	}
	return s.golden.bump(la)
}

// dramVerSet records the version written back to DRAM (checker state only;
// see goldenWrite).
func (s *Simulator) dramVerSet(la mem.Addr, ver uint64) {
	if s.cfg.CheckValues {
		s.dramVer.set(la, ver)
	}
}

// dramVerGet returns the version resident in DRAM (checker state only; see
// goldenWrite).
func (s *Simulator) dramVerGet(la mem.Addr) uint64 {
	if !s.cfg.CheckValues {
		return 0
	}
	return s.dramVer.get(la)
}

// checkVersion asserts a read observed the latest committed write.
func (s *Simulator) checkVersion(ctx string, la mem.Addr, ver uint64) {
	if want := s.golden.get(la); ver != want {
		panic(fmt.Sprintf("sim: coherence violation at %s: line %#x version %d, golden %d",
			ctx, la, ver, want))
	}
}

// borrowIDs returns a reusable copy of src, so mutating multicast loops can
// iterate a stable snapshot of a sharer list without allocating. Pair with
// returnIDs. The free-list (rather than a single buffer) keeps accidental
// nesting safe.
func (s *Simulator) borrowIDs(src []int16) []int16 {
	var buf []int16
	if n := len(s.idScratch); n > 0 {
		buf = s.idScratch[n-1]
		s.idScratch = s.idScratch[:n-1]
	}
	return append(buf[:0], src...)
}

func (s *Simulator) returnIDs(buf []int16) {
	s.idScratch = append(s.idScratch, buf)
}

// coreQueue is a binary min-heap of runnable cores ordered by (local time,
// core id). Each entry packs its key into one uint64, (now-base)<<16 | id,
// so every comparison is a single unsigned compare; 16 bits hold MaxCores.
// A core's clock is final when pushed, so the key is a snapshot, and keys
// are unique (a core is queued at most once; id breaks time ties), making
// pop order fully deterministic and the same as ordering by (now, id).
//
// base keeps the packed clocks small: a clock that would not fit in the 48
// bits above it makes the queue rebase (see rebase), and a spread of queued
// clocks that itself does not fit is an error, never a wrapped key.
//
// The engine pops the root core, runs one operation and re-keys it in
// place (replaceTop), so a core that stays earliest costs one sift-down of
// two comparisons. The backing array always holds a queueSentinel just past
// the last entry (q[:len(q)+1]), so in siftDown every parent has two
// children and the smaller one is picked without a branch.
type coreQueue struct {
	q    []uint64
	base mem.Cycle
}

const (
	queueIDBits = 16
	queueIDMask = 1<<queueIDBits - 1
	// queueMaxSpan is the largest clock offset above base a key can hold.
	queueMaxSpan = mem.Cycle(1)<<(64-queueIDBits) - 1
	// queueSentinel is the +inf key. It decodes to id 0xFFFF, above
	// MaxCores, so no entry ever equals it.
	queueSentinel = ^uint64(0)
)

// errQueueSpan reports runnable cores whose clocks lie further apart than
// a packed run-queue key can represent.
var errQueueSpan = errors.New("sim: runnable core clocks span 2^48 cycles or more")

// reset empties the queue for a run of the given number of cores, with
// room for all of them plus the sentinel.
func (q *coreQueue) reset(cores int) {
	if cap(q.q) < cores+1 {
		q.q = make([]uint64, 0, cores+1)
	}
	q.q = append(q.q[:0], queueSentinel)[:0]
	q.base = 0
}

// rebase moves base to the smallest clock among the queued keys and now,
// shifting every key by the same amount: O(len) and exact, because a
// uniform shift of the time field keeps every comparison, and so the heap,
// as it was. The engine only ever runs the minimum core and re-queues
// cores at or after its clock, so in practice base only moves forward.
func (q *coreQueue) rebase(now mem.Cycle) error {
	lo, hi := now, now
	for _, k := range q.q {
		c := q.base + mem.Cycle(k>>queueIDBits)
		lo, hi = min(lo, c), max(hi, c)
	}
	if hi-lo > queueMaxSpan {
		return errQueueSpan
	}
	for i, k := range q.q {
		c := q.base + mem.Cycle(k>>queueIDBits)
		q.q[i] = uint64(c-lo)<<queueIDBits | k&queueIDMask
	}
	q.base = lo
	return nil
}

// push queues core id at clock now, moving a hole up from the new leaf.
func (q *coreQueue) push(now mem.Cycle, id int32) error {
	if now-q.base > queueMaxSpan { // also catches now < base, which wraps
		if err := q.rebase(now); err != nil {
			return err
		}
	}
	k := uint64(now-q.base)<<queueIDBits | uint64(id)
	n := len(q.q)
	q.q = append(q.q, 0, queueSentinel)[:n+1]
	h := q.q
	i := n
	for i > 0 {
		p := (i - 1) / 2
		if h[p] < k {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = k
	return nil
}

// top returns the earliest core without removing it.
func (q *coreQueue) top() int32 { return int32(q.q[0] & queueIDMask) }

// replaceTop re-keys the root core at its advanced clock. When the clock
// does not fit above base, it pops and re-pushes instead, so the rebase
// sees the other entries' minimum rather than the root's stale clock.
func (q *coreQueue) replaceTop(now mem.Cycle, id int32) error {
	d := now - q.base
	if d > queueMaxSpan {
		q.popTop()
		return q.push(now, id)
	}
	q.siftDown(uint64(d)<<queueIDBits | uint64(id))
	return nil
}

// popTop removes the root core.
func (q *coreQueue) popTop() {
	last := len(q.q) - 1
	k := q.q[last]
	q.q[last] = queueSentinel
	q.q = q.q[:last]
	if last > 0 {
		q.siftDown(k)
	}
}

// siftDown places key k at the root: it moves a hole down past every
// smaller child, then drops k into it. The sentinel past the last entry
// stands in for a missing right child, and the smaller child is chosen
// with a flag and a conditional move: which child wins is unpredictable,
// so a branch there mispredicts about half the time.
func (q *coreQueue) siftDown(k uint64) {
	n := uint(len(q.q))
	h := q.q[:n+1]
	i := uint(0)
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		m, mr := h[c], h[c+1]
		var right uint
		if mr < m {
			right = 1
		}
		c += right
		m = min(m, mr)
		if k < m {
			break
		}
		h[i] = m
		i = c
	}
	h[i] = k
}
