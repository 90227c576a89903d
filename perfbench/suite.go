package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"time"

	"lacc/internal/cache"
	"lacc/internal/check"
	"lacc/internal/cluster"
	"lacc/internal/coherence"
	"lacc/internal/core"
	"lacc/internal/dram"
	"lacc/internal/experiments"
	"lacc/internal/mem"
	"lacc/internal/network"
	"lacc/internal/server"
	"lacc/internal/sim"
	"lacc/internal/store"
	"lacc/internal/trace"
)

// suiteReps is how many times each timed loop of the layer suite runs;
// the suite reports the median.
const suiteReps = 5

// runSuite is the fixed layer suite: the same inputs in every workload's
// traced run, so a per-layer figure compares across commits on any
// workload. dir is scratch space for the store.
func runSuite(tr *tracer, parent int64, dir string) (map[string]float64, error) {
	m := map[string]float64{}
	steps := []struct {
		name string
		run  func(map[string]float64) error
	}{
		{"suite.sim", suiteSim},
		{"suite.network", suiteNetwork},
		{"suite.dram", suiteDRAM},
		{"suite.cache", suiteCache},
		{"suite.coherence", suiteCoherence},
		{"suite.core", suiteCore},
		{"suite.serve", func(m map[string]float64) error { return suiteServe(m, dir) }},
		{"suite.check", suiteCheck},
	}
	for _, st := range steps {
		id := tr.start(st.name, parent, 0)
		err := st.run(m)
		tr.end(id)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", st.name, err)
		}
	}
	return m, nil
}

// nsPerOp runs loop(n) suiteReps times and returns the median ns per
// iteration.
func nsPerOp(n int, loop func(n int)) float64 {
	xs := make([]float64, suiteReps)
	for i := range xs {
		t0 := time.Now()
		loop(n)
		xs[i] = float64(time.Since(t0).Nanoseconds()) / float64(n)
	}
	return median(xs)
}

// sink keeps the compiler from discarding the results of timed loops.
var sink uint64

// hitCorpus: each core of a 64-core machine cycles over eight lines of its
// own page, so after the first touch every access hits in L1.
func hitCorpus(cores, perCore int) trace.Source {
	seqs := make([][]mem.Access, cores)
	for c := range seqs {
		base := mem.Addr(0x40000000 + c<<20)
		for i := 0; i < perCore; i++ {
			kind := mem.Read
			if i%4 == 3 {
				kind = mem.Write
			}
			seqs[c] = append(seqs[c], mem.Access{Kind: kind, Addr: base + mem.Addr(i%8)*mem.LineBytes, Gap: 1})
		}
	}
	return trace.CorpusFromSlices(seqs)
}

// missCorpus: every core of a 256-core machine reads and writes the same
// eight lines, so accesses are shared-write misses whose invalidations
// overflow ACKwise4 into broadcasts.
func missCorpus(cores, perCore int) trace.Source {
	seqs := make([][]mem.Access, cores)
	for c := range seqs {
		for i := 0; i < perCore; i++ {
			kind := mem.Read
			if (i+c)%5 == 0 {
				kind = mem.Write
			}
			seqs[c] = append(seqs[c], mem.Access{Kind: kind, Addr: mem.Addr(0x20000000 + ((i+c)%8)*mem.LineBytes), Gap: 2})
		}
	}
	return trace.CorpusFromSlices(seqs)
}

func suiteSim(m map[string]float64) error {
	cfg64 := sim.Default()
	cfg64.CheckValues = false
	cfg256 := cfg64
	cfg256.Cores, cfg256.MeshWidth = 256, 16
	for _, c := range []struct {
		suffix string
		cfg    sim.Config
		src    trace.Source
	}{
		{"hit_ns_per_access", cfg64, hitCorpus(64, 4000)},
		{"miss_ns_per_access", cfg256, missCorpus(256, 60)},
	} {
		s, err := sim.New(c.cfg)
		if err != nil {
			return err
		}
		for _, k := range protocolKinds {
			cfg := c.cfg
			cfg.ProtocolKind = sim.ProtocolKind(k)
			xs := make([]float64, suiteReps)
			for i := range xs {
				if err := s.Reset(cfg); err != nil {
					return err
				}
				t0 := time.Now()
				res, err := s.Run(c.src.Streams())
				d := time.Since(t0)
				if err != nil {
					return fmt.Errorf("%s %s: %w", k, c.suffix, err)
				}
				xs[i] = float64(d.Nanoseconds()) / float64(res.DataAccesses)
			}
			m["sim."+k+"."+c.suffix] = median(xs)
		}
	}
	for _, c := range []struct {
		name string
		cfg  sim.Config
	}{{"sim.reset_ms_64", cfg64}, {"sim.reset_ms_256", cfg256}} {
		s, err := sim.New(c.cfg)
		if err != nil {
			return err
		}
		var resetErr error
		m[c.name] = nsPerOp(1, func(int) {
			if err := s.Reset(c.cfg); err != nil {
				resetErr = err
			}
		}) / 1e6
		if resetErr != nil {
			return resetErr
		}
	}
	return nil
}

func suiteNetwork(m map[string]float64) error {
	m8 := network.New(network.Config{Width: 8, Height: 8, HopLatency: 2})
	var t mem.Cycle
	m["network.unicast_ns"] = nsPerOp(200000, func(n int) {
		for i := 0; i < n; i++ {
			t += 3
			sink += uint64(m8.Unicast(i%64, (i*7+3)%64, 1+i%5, t))
		}
	})
	for _, c := range []struct {
		name string
		w, n int
	}{{"network.broadcast_ns_8x8", 8, 20000}, {"network.broadcast_ns_16x16", 16, 5000}} {
		mesh := network.New(network.Config{Width: c.w, Height: c.w, HopLatency: 2})
		tiles := c.w * c.w
		buf := make([]mem.Cycle, tiles)
		var bt mem.Cycle
		m[c.name] = nsPerOp(c.n, func(n int) {
			for i := 0; i < n; i++ {
				bt += 5
				buf = mesh.BroadcastInto(buf[:0], i%tiles, 1, bt)
				sink += uint64(buf[len(buf)-1])
			}
		})
	}
	return nil
}

func suiteDRAM(m map[string]float64) error {
	d := dram.New(dram.Config{Controllers: 8, LatencyCycles: 100, BytesPerCycle: 5, Tiles: dram.DefaultTiles(8, 8, 8)})
	var t mem.Cycle
	m["dram.read_ns"] = nsPerOp(200000, func(n int) {
		for i := 0; i < n; i++ {
			t += 7
			sink += uint64(d.Read(i%8, mem.LineBytes, t))
		}
	})
	return nil
}

func suiteCache(m map[string]float64) error {
	c := cache.New(32<<10, 4)
	for i := 0; i < 256; i++ {
		c.Insert(mem.Addr(i * mem.LineBytes))
	}
	m["cache.probe_hit_ns"] = nsPerOp(1000000, func(n int) {
		for i := 0; i < n; i++ {
			if l := c.Probe(mem.Addr((i % 256) * mem.LineBytes)); l != nil {
				sink++
			}
		}
	})
	// Cycling over eight times the capacity with LRU touches evicts on
	// every insert and never meets a resident line.
	e := cache.New(32<<10, 4)
	var now mem.Cycle
	m["cache.insert_evict_ns"] = nsPerOp(500000, func(n int) {
		for i := 0; i < n; i++ {
			now++
			l, _, evicted := e.Insert(mem.Addr(now%4096) * mem.LineBytes)
			e.Touch(l, now)
			if evicted {
				sink++
			}
		}
	})
	return nil
}

// suiteCoherence times the sharer-set operations of one directory entry's
// life: k distinct sharers join, are looked up and leave, per operation.
// Under ACKwise4 eight sharers overflow the pointers; the full-map set
// tracks 32 of 256 cores.
func suiteCoherence(m map[string]float64) error {
	for _, c := range []struct {
		name           string
		ptrs, cores, k int
	}{{"coherence.sharerset_ackwise4_ns", 4, 64, 8}, {"coherence.sharerset_full256_ns", 256, 256, 32}} {
		s := coherence.NewSharerSet(c.ptrs)
		rounds := 20000
		m[c.name] = nsPerOp(rounds, func(n int) {
			for r := 0; r < n; r++ {
				for j := 0; j < c.k; j++ {
					s.Add((r*37 + j*11) % c.cores)
				}
				for j := 0; j < c.k; j++ {
					if s.MaybeSharer((r*37 + j*11) % c.cores) {
						sink++
					}
				}
				for j := 0; j < c.k; j++ {
					s.Remove((r*37 + j*11) % c.cores)
				}
			}
		}) / float64(3*c.k)
	}
	return nil
}

func suiteCore(m map[string]float64) error {
	cl := core.NewClassifier(64, 3)
	m["core.limited3_classify_ns"] = nsPerOp(1000000, func(n int) {
		for i := 0; i < n; i++ {
			st := core.Lookup(cl, (i*13)%64)
			st.RemoteUtil++
			if i%64 == 63 {
				cl.DeactivateRemoteExcept(i % 64)
			}
		}
	})
	return nil
}

// suiteServe measures the session, encoding, handler, store and cluster
// layers with the serve workload's request shape and one of its results.
func suiteServe(m map[string]float64, dir string) error {
	val, err := suiteSession(m)
	if err != nil {
		return err
	}
	st, keys, err := suiteStore(m, filepath.Join(dir, "suite-store"), val)
	if err != nil {
		return err
	}
	defer st.Close()
	return suiteCluster(m, st, keys, val)
}

// suiteSession times memoised claims, canonical encoding and the handler
// around them, and returns one encoded result.
func suiteSession(m map[string]float64) ([]byte, error) {
	sess := experiments.NewSession()
	o := experiments.Options{Cores: serveCores, Scale: serveScale, Seed: 1, Parallelism: 2,
		Benchmarks: serveBenches, Session: sess}
	sw, err := experiments.RunPCTSweep(o, servePCTs)
	if err != nil {
		return nil, err
	}
	var claimErr error
	m["experiments.claim_ns_per_job"] = nsPerOp(50, func(n int) {
		for i := 0; i < n; i++ {
			if _, err := experiments.RunPCTSweep(o, servePCTs); err != nil {
				claimErr = err
			}
		}
	}) / jobsPerBody
	if claimErr != nil {
		return nil, claimErr
	}

	res := sw.Results[serveBenches[0]][servePCTs[0]]
	val, err := server.EncodeCanonical(res)
	if err != nil {
		return nil, err
	}
	m["server.encode_us_per_result"] = nsPerOp(500, func(n int) {
		for i := 0; i < n; i++ {
			b, _ := server.EncodeCanonical(res)
			sink += uint64(len(b))
		}
	}) / 1e3

	// A memory-tier request through the handler, less the same memoised
	// sweep and response encoding called directly, is the handler's own
	// time: decoding, validation, admission and coalescing. The two run in
	// pairs and the median difference is reported, which host drift
	// between separate loops would swamp.
	srv := server.New(server.Config{Session: sess})
	body, _ := server.EncodeCanonical(server.Request{Cores: serveCores, Scale: serveScale, Seed: 1,
		Benchmarks: serveBenches, PCTs: servePCTs})
	var diffs []float64
	for i := 0; i < 250; i++ {
		t0 := time.Now()
		sw, err := experiments.RunPCTSweep(o, servePCTs)
		if err != nil {
			return nil, err
		}
		b, _ := server.EncodeCanonical(sw)
		t1 := time.Now()
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/experiments/pct-sweep", bytes.NewReader(body)))
		d := time.Since(t1) - t1.Sub(t0)
		if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), b) {
			return nil, fmt.Errorf("pct-sweep answered %d with %d bytes, want 200 with the direct call's %d", rec.Code, rec.Body.Len(), len(b))
		}
		diffs = append(diffs, float64(d.Nanoseconds())/1e3)
	}
	if st := sess.Stats(); st.Simulated != jobsPerBody {
		return nil, fmt.Errorf("memory-tier requests simulated %d jobs", st.Simulated-jobsPerBody)
	}
	m["server.handler_us"] = median(diffs)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
	var stats server.Stats
	if err := jsonDecode(rec.Body.Bytes(), &stats); err != nil {
		return nil, err
	}
	m["server.rejected"] = float64(stats.Rejected)
	return val, nil
}

// suiteStore times fsync'd puts of val, the recovery of what they left and
// gets, and returns the reopened store with its keys.
func suiteStore(m map[string]float64, sdir string, val []byte) (*store.Store, []store.Key, error) {
	const records = 64
	keys := make([]store.Key, records)
	for i := range keys {
		keys[i] = sha256.Sum256([]byte(fmt.Sprintf("perfbench-%d", i)))
	}
	st, err := store.Open(store.Options{Dir: sdir})
	if err != nil {
		return nil, nil, err
	}
	var puts []float64
	for _, k := range keys {
		t0 := time.Now()
		if err := st.Put(k, val); err != nil {
			st.Close()
			return nil, nil, err
		}
		puts = append(puts, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	m["store.put_fsync_us"] = median(puts)
	if err := st.Close(); err != nil {
		return nil, nil, err
	}
	var opens []float64
	for i := 0; i < suiteReps; i++ {
		t0 := time.Now()
		st, err = store.Open(store.Options{Dir: sdir})
		if err != nil {
			return nil, nil, err
		}
		opens = append(opens, float64(time.Since(t0).Nanoseconds())/1e6)
		if i < suiteReps-1 {
			st.Close()
		}
	}
	m["store.open_recover_ms"] = median(opens)
	m["store.get_us"] = nsPerOp(records*10, func(n int) {
		for i := 0; i < n; i++ {
			v, ok := st.Get(keys[i%records])
			if ok {
				sink += uint64(len(v))
			}
		}
	}) / 1e3
	m["store.put_errors"] = float64(st.Stats().PutErrors)
	return st, keys, nil
}

// suiteCluster times cluster.Fetch of keys from a peer serving st on
// loopback, as a second member of its cluster.
func suiteCluster(m map[string]float64, st *store.Store, keys []store.Key, val []byte) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	peer := &node{addr: ln.Addr().String(), st: st, ended: make(chan struct{}),
		http: &http.Server{Handler: server.New(server.Config{Store: st})}}
	go func() {
		defer close(peer.ended)
		peer.http.Serve(ln)
	}()
	self := "127.0.0.1:1" // never contacted: a member skips itself
	cl, err := cluster.New(cluster.Config{Self: self, Peers: []string{self, peer.addr}})
	if err != nil {
		peer.stopHTTP()
		return err
	}
	var fetchErr error
	m["cluster.fetch_us"] = nsPerOp(len(keys), func(n int) {
		for i := 0; i < n; i++ {
			v, ok := cl.Fetch(keys[i%len(keys)])
			if !ok || !bytes.Equal(v, val) {
				fetchErr = fmt.Errorf("fetch %d missed or returned wrong bytes", i)
			}
		}
	}) / 1e3
	cs := cl.Stats()
	cl.Close()
	peer.stopHTTP()
	if fetchErr != nil {
		return fetchErr
	}
	m["cluster.fetch_hit_ratio"] = float64(cs.FetchHits) / float64(cs.Fetches)
	return nil
}

func suiteCheck(m map[string]float64) error {
	t0 := time.Now()
	rep, err := check.Run(check.Options{Config: check.Bound(sim.ProtocolMESI, 2, 0), MaxDepth: 9})
	d := time.Since(t0)
	if err != nil {
		return err
	}
	if rep.Violation != nil {
		return fmt.Errorf("mesi %s violation: %s", rep.Violation.Kind, rep.Violation.Detail)
	}
	m["check.ns_per_transition"] = float64(d.Nanoseconds()) / float64(rep.Transitions)
	m["check.states"] = float64(rep.States)
	m["check.transitions"] = float64(rep.Transitions)
	return nil
}
