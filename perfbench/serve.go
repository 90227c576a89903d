package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"lacc/internal/cluster"
	"lacc/internal/experiments"
	"lacc/internal/server"
	"lacc/internal/store"
	"lacc/internal/workloads"
)

// serveBenches and servePCTs shape every served request: six benchmarks
// at four private-caching thresholds, 24 simulations per request. The six
// span four of the paper's suites and are among the cheapest to simulate
// at this size (matmul alone costs more than all six), so serving,
// storage and peer costs are not lost under simulation time.
var (
	serveBenches = []string{"streamcluster", "canneal", "barnes", "dfs", "patricia", "dedup"}
	servePCTs    = []int{1, 2, 4, 8}
)

const (
	serveCores = 16
	serveScale = 0.05
	// serveBodies is the number of distinct requests in one round.
	serveBodies = 4
	// serveClients drive each phase closed-loop: lacc-serve's callers are
	// scripts that wait for each reply.
	serveClients = 2
	jobsPerBody  = 24
)

// tiers are the serving tiers in the order a round exercises them.
var tiers = []string{"cold", "mem", "disk", "peer"}

// node is one in-process lacc-serve on a loopback listener.
type node struct {
	addr  string
	st    *store.Store
	cl    *cluster.Cluster
	http  *http.Server
	ended chan struct{}
}

// serveWL is the serve workload. Node A has a store of its own; node B
// has another, empty store and a cluster whose members are A and B. A
// round sends the same distinct pct-sweep bodies through four phases,
// one per answering tier: cold (A simulates and writes each result to
// its store with fsync), mem (A again), disk (A after an admin flush)
// and peer (B, which fetches from A).
type serveWL struct {
	seed     uint64
	dir      string
	rng      *splitMix
	a, b     *node
	client   *http.Client
	nextReq  int64
	lastSeed uint64       // workload seed of the last request body
	lat      [4][]float64 // ms per tier, untraced passes
	notes    []string
}

func newServe(seed uint64, dir string) *serveWL {
	return &serveWL{seed: seed, dir: dir}
}

func (s *serveWL) setup() error {
	s.rng = newSplitMix(s.seed)
	a, err := startNode(filepath.Join(s.dir, "a"), nil)
	if err != nil {
		return err
	}
	s.a = a
	b, err := startNode(filepath.Join(s.dir, "b"), []string{a.addr})
	if err != nil {
		return err
	}
	s.b = b
	s.client = &http.Client{Transport: &http.Transport{MaxConnsPerHost: serveClients, MaxIdleConnsPerHost: serveClients}}
	// Warm-up: one round of one request, discarded.
	p := s.round(nil, 0, 1, false)
	if p.failed != 0 {
		return fmt.Errorf("warm-up round failed: %v", s.notes)
	}
	return nil
}

// startNode starts a node with a fresh store in dir. With peers, the node
// runs a cluster whose members are the peers and itself.
func startNode(dir string, peers []string) (*node, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	n := &node{addr: ln.Addr().String(), ended: make(chan struct{})}
	n.st, err = store.Open(store.Options{Dir: dir})
	if err != nil {
		ln.Close()
		return nil, err
	}
	cfg := server.Config{Store: n.st, MaxInFlight: serveClients, Parallelism: 1}
	if peers != nil {
		n.cl, err = cluster.New(cluster.Config{Self: n.addr, Peers: append([]string{n.addr}, peers...)})
		if err != nil {
			ln.Close()
			n.st.Close()
			return nil, err
		}
		cfg.Cluster = n.cl
	}
	n.http = &http.Server{Handler: server.New(cfg)}
	go func() {
		defer close(n.ended)
		n.http.Serve(ln)
	}()
	return n, nil
}

func (n *node) stop() {
	if n == nil {
		return
	}
	n.stopHTTP()
	if n.cl != nil {
		n.cl.Close()
	}
	n.st.Close()
}

// stopHTTP shuts the listener down and waits for Serve to return.
func (n *node) stopHTTP() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	n.http.Shutdown(ctx)
	<-n.ended
}

func (s *serveWL) close() {
	s.b.stop()
	s.a.stop()
	s.a, s.b = nil, nil
	if s.client != nil {
		s.client.CloseIdleConnections()
	}
	workloads.FlushCorpora()
}

func (s *serveWL) pass(tr *tracer, parent int64) passOutcome {
	return s.round(tr, parent, serveBodies, tr == nil)
}

// round sends n fresh request bodies through the four tiers.
func (s *serveWL) round(tr *tracer, parent int64, n int, keep bool) passOutcome {
	p := passOutcome{ops: n * len(tiers)}
	bodies := make([][]byte, n)
	for i := range bodies {
		s.lastSeed = s.rng.next()
		bodies[i], _ = server.EncodeCanonical(server.Request{
			Cores: serveCores, Scale: serveScale, Seed: s.lastSeed,
			Benchmarks: serveBenches, PCTs: servePCTs,
		})
	}
	jobs := uint64(n * jobsPerBody)
	t0 := time.Now()
	var cold [][]byte
	for ti, tier := range tiers {
		target := s.a
		switch tier {
		case "disk":
			if err := s.call(http.MethodPost, s.a, "/v1/admin/flush", nil, nil); err != nil {
				s.note("flush: %v", err)
				p.failed += n
				continue
			}
		case "peer":
			target = s.b
		}
		ph := s.phase(tr, parent, tier, target, bodies)
		for _, d := range ph.lat {
			p.idle -= d
			if keep {
				s.lat[ti] = append(s.lat[ti], float64(d.Nanoseconds())/1e6)
			}
		}
		failed := ph.failed
		if tier == "cold" {
			cold = ph.resp
			for _, b := range cold {
				p.accesses += accessesIn(b)
			}
		} else {
			for i, b := range ph.resp {
				if ph.ok[i] && !bytes.Equal(b, cold[i]) {
					s.note("%s body %d differs from the cold body", tier, i)
					failed++
				}
			}
		}
		d, err := ph.delta()
		if err != nil {
			s.note("%s stats: %v", tier, err)
			failed = n
		} else {
			var answered uint64
			switch tier {
			case "cold":
				answered = d.Session.Simulated
				if d.Store == nil || d.Store.Puts != jobs || d.Store.PutErrors != 0 {
					s.note("cold phase store delta %+v, want %d puts and no errors", d.Store, jobs)
					failed = n
				}
			case "mem":
				answered = d.Session.Hits
			case "disk":
				answered = d.Session.DiskHits
			case "peer":
				answered = d.Session.PeerHits
			}
			p.tiers[ti] = float64(answered)
			if answered != jobs || (tier != "cold" && d.Session.Simulated != 0) {
				s.note("%s phase answered %d of %d fingerprints, simulated %d", tier, answered, jobs, d.Session.Simulated)
				failed = n
			}
		}
		p.failed += min(failed, n)
	}
	// The clients are idle whenever they are not waiting on a request:
	// between phases, and while one waits for the other to finish.
	p.wall = time.Since(t0)
	p.idle += serveClients * p.wall
	return p
}

// phaseResult is what one tier's phase returned.
type phaseResult struct {
	resp          [][]byte
	ok            []bool
	lat           []time.Duration
	failed        int
	before, after server.Stats
	statsErr      error
}

// delta returns the change of the node's counters over the phase.
func (ph *phaseResult) delta() (server.Stats, error) {
	if ph.statsErr != nil {
		return server.Stats{}, ph.statsErr
	}
	b, a := ph.before, ph.after
	d := server.Stats{Session: experiments.SessionStats{
		Simulated: a.Session.Simulated - b.Session.Simulated,
		Hits:      a.Session.Hits - b.Session.Hits,
		DiskHits:  a.Session.DiskHits - b.Session.DiskHits,
		PeerHits:  a.Session.PeerHits - b.Session.PeerHits,
	}}
	if a.Store != nil && b.Store != nil {
		d.Store = &store.Stats{Puts: a.Store.Puts - b.Store.Puts, PutErrors: a.Store.PutErrors - b.Store.PutErrors}
	}
	return d, nil
}

// phase sends every body to target from serveClients closed-loop clients.
func (s *serveWL) phase(tr *tracer, parent int64, tier string, target *node, bodies [][]byte) *phaseResult {
	ph := &phaseResult{resp: make([][]byte, len(bodies)), ok: make([]bool, len(bodies)), lat: make([]time.Duration, len(bodies))}
	if err := s.call(http.MethodGet, target, "/v1/stats", nil, &ph.before); err != nil {
		ph.statsErr = err
	}
	next := make(chan int, len(bodies))
	for i := range bodies {
		next <- i
	}
	close(next)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				mu.Lock()
				s.nextReq++
				req := s.nextReq
				mu.Unlock()
				id := tr.start("serve."+tier, parent, req)
				t0 := time.Now()
				var raw json.RawMessage
				err := s.call(http.MethodPost, target, "/v1/experiments/pct-sweep", bodies[i], &raw)
				ph.lat[i] = time.Since(t0)
				tr.end(id)
				mu.Lock()
				if err != nil {
					s.notes = append(s.notes, fmt.Sprintf("%s request %d: %v", tier, i, err))
					ph.failed++
				} else {
					ph.resp[i], ph.ok[i] = raw, true
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if ph.statsErr == nil {
		if err := s.call(http.MethodGet, target, "/v1/stats", nil, &ph.after); err != nil {
			ph.statsErr = err
		}
	}
	return ph
}

// call sends one request to n and decodes a 200 response into out (when
// non-nil); a *json.RawMessage receives the exact bytes.
func (s *serveWL) call(method string, n *node, path string, body []byte, out any) error {
	req, err := http.NewRequest(method, "http://"+n.addr+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := s.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: status %d: %s", path, resp.StatusCode, bytes.TrimSpace(b))
	}
	switch out := out.(type) {
	case nil:
		return nil
	case *json.RawMessage:
		*out = b
		return nil
	default:
		return jsonDecode(b, out)
	}
}

func jsonDecode(b []byte, out any) error {
	if err := json.Unmarshal(b, out); err != nil {
		return fmt.Errorf("decoding %.80q: %w", b, err)
	}
	return nil
}

// accessesIn sums the simulated data accesses of a pct-sweep response.
func accessesIn(body []byte) float64 {
	var r struct {
		Results map[string]map[string]struct{ DataAccesses uint64 }
	}
	if json.Unmarshal(body, &r) != nil {
		return 0
	}
	var n float64
	for _, byPCT := range r.Results {
		for _, x := range byPCT {
			n += float64(x.DataAccesses)
		}
	}
	return n
}

// layers replays, as the serve workload's corpora, the six benchmarks of
// the last request sent.
func (s *serveWL) layers(tr *tracer, parent int64, passes []passOutcome) (map[string]float64, error) {
	spec := workloads.Spec{Cores: serveCores, Scale: serveScale, Seed: s.lastSeed}
	refs := make([]corpusRef, len(serveBenches))
	for i, b := range serveBenches {
		refs[i] = corpusRef{b, spec}
	}
	base := experiments.Options{Cores: serveCores, Scale: serveScale}.BaseConfig()
	return replayLayers(tr, parent, refs, withKind(base), serveClients, passes)
}

func (s *serveWL) info() []string {
	var out []string
	for i, tier := range tiers {
		sm := summarize(s.lat[i])
		tail := "tail unsupported (fewer than 10 samples beyond p75)"
		if sm.TailP > 0 {
			tail = fmt.Sprintf("p%g %.3f ms", sm.TailP, sm.Tail)
		}
		out = append(out, fmt.Sprintf("serve %s tier: n=%d p50 %.3f ms (q1 %.3f, q3 %.3f), %s",
			tier, sm.N, sm.Median, sm.Q1, sm.Q3, tail))
	}
	return append(out, s.notes...)
}

func (s *serveWL) note(format string, args ...any) {
	s.notes = append(s.notes, fmt.Sprintf(format, args...))
}
