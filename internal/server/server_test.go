package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"lacc"
	"lacc/internal/server"
)

// testMachine is the small request every test uses: 4 cores so sweeps
// finish in milliseconds.
const (
	testCores = 4
	testScale = 0.05
)

// newTestServer builds a handler with tight, test-friendly bounds.
func newTestServer(t *testing.T, cfg server.Config) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(server.New(cfg))
	t.Cleanup(ts.Close)
	return ts
}

// post sends body to path and returns the response status and body.
func post(t *testing.T, ts *httptest.Server, path, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("POST %s: reading body: %v", path, err)
	}
	return resp.StatusCode, b
}

// get fetches path and returns the response status and body.
func get(t *testing.T, ts *httptest.Server, path string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: reading body: %v", path, err)
	}
	return resp.StatusCode, b
}

// mustCanonical encodes v exactly as the service does.
func mustCanonical(t *testing.T, v any) []byte {
	t.Helper()
	b, err := server.EncodeCanonical(v)
	if err != nil {
		t.Fatalf("EncodeCanonical: %v", err)
	}
	return b
}

// TestServedMatchesDirect is the service's core contract: for a PCT
// sweep, a protocol comparison and a single workload run, the served
// response body is byte-identical to the direct lacc API call's result
// pushed through the same canonical JSON encoding.
func TestServedMatchesDirect(t *testing.T) {
	ts := newTestServer(t, server.Config{MaxInFlight: 4, Parallelism: 2})
	opts := lacc.ExperimentOptions{
		Cores:      testCores,
		Scale:      testScale,
		Benchmarks: []string{"matmul", "dfs"},
	}

	t.Run("pct-sweep", func(t *testing.T) {
		status, body := post(t, ts, "/v1/experiments/pct-sweep",
			fmt.Sprintf(`{"cores":%d,"scale":%g,"benchmarks":["matmul","dfs"],"pcts":[1,2,4]}`, testCores, testScale))
		if status != http.StatusOK {
			t.Fatalf("status %d: %s", status, body)
		}
		direct, err := lacc.ExperimentPCTSweep(opts, []int{1, 2, 4})
		if err != nil {
			t.Fatal(err)
		}
		if want := mustCanonical(t, direct); !bytes.Equal(body, want) {
			t.Errorf("served PCT sweep differs from direct call\nserved: %.200s\ndirect: %.200s", body, want)
		}
	})

	t.Run("protocols", func(t *testing.T) {
		status, body := post(t, ts, "/v1/experiments/protocols",
			fmt.Sprintf(`{"cores":%d,"scale":%g,"benchmarks":["matmul","dfs"]}`, testCores, testScale))
		if status != http.StatusOK {
			t.Fatalf("status %d: %s", status, body)
		}
		direct, err := lacc.ExperimentProtocolComparison(opts, nil)
		if err != nil {
			t.Fatal(err)
		}
		if want := mustCanonical(t, direct); !bytes.Equal(body, want) {
			t.Errorf("served protocol comparison differs from direct call\nserved: %.200s\ndirect: %.200s", body, want)
		}
		// The default comparison covers every registered protocol; the
		// served body must name all six.
		kinds := lacc.ProtocolKinds()
		if len(kinds) != 6 {
			t.Errorf("registered protocols = %v, want 6", kinds)
		}
		for _, kind := range kinds {
			if !bytes.Contains(body, []byte(`"`+string(kind)+`"`)) {
				t.Errorf("served protocol comparison missing %q", kind)
			}
		}
	})

	t.Run("run", func(t *testing.T) {
		status, body := post(t, ts, "/v1/run",
			fmt.Sprintf(`{"workload":"matmul","cores":%d,"scale":%g}`, testCores, testScale))
		if status != http.StatusOK {
			t.Fatalf("status %d: %s", status, body)
		}
		// The direct equivalent: the same machine through the plain
		// library entry point (an uncached corpus, no session) — the
		// served result must match bit for bit.
		cfg := lacc.ExperimentOptions{Cores: testCores}.BaseConfig()
		direct, err := lacc.RunWorkload(cfg, "matmul", testScale, 0)
		if err != nil {
			t.Fatal(err)
		}
		if want := mustCanonical(t, direct); !bytes.Equal(body, want) {
			t.Errorf("served run differs from direct lacc.RunWorkload\nserved: %.200s\ndirect: %.200s", body, want)
		}
	})

	t.Run("run-with-overrides", func(t *testing.T) {
		status, body := post(t, ts, "/v1/run",
			fmt.Sprintf(`{"workload":"matmul","cores":%d,"scale":%g,"config":{"protocol":"mesi"}}`, testCores, testScale))
		if status != http.StatusOK {
			t.Fatalf("status %d: %s", status, body)
		}
		cfg := lacc.ExperimentOptions{Cores: testCores}.BaseConfig()
		cfg.ProtocolKind = lacc.ProtocolMESI
		direct, err := lacc.RunWorkload(cfg, "matmul", testScale, 0)
		if err != nil {
			t.Fatal(err)
		}
		if want := mustCanonical(t, direct); !bytes.Equal(body, want) {
			t.Errorf("served MESI run differs from direct call\nserved: %.200s\ndirect: %.200s", body, want)
		}
	})
}

// TestConcurrentCoalescingAndAdmission is the -race stress test: 64
// concurrent overlapping requests (four distinct bodies) against a
// 3-slot server. It asserts every request succeeds with the identical
// body per request class, that duplicate in-flight work was coalesced
// (request-level or session-level), and that the admission bound was
// never exceeded (peak_in_flight via /v1/stats).
func TestConcurrentCoalescingAndAdmission(t *testing.T) {
	const (
		maxInFlight = 3
		clients     = 64
	)
	ts := newTestServer(t, server.Config{MaxInFlight: maxInFlight, MaxQueue: 64, Parallelism: 2})

	type reqClass struct{ path, body string }
	classes := []reqClass{
		{"/v1/experiments/pct-sweep", fmt.Sprintf(`{"cores":%d,"scale":%g,"benchmarks":["matmul"],"pcts":[1,2]}`, testCores, testScale)},
		{"/v1/experiments/pct-sweep", fmt.Sprintf(`{"cores":%d,"scale":%g,"benchmarks":["matmul"],"pcts":[2,3]}`, testCores, testScale)},
		{"/v1/experiments/protocols", fmt.Sprintf(`{"cores":%d,"scale":%g,"benchmarks":["dfs"]}`, testCores, testScale)},
		{"/v1/run", fmt.Sprintf(`{"workload":"matmul","cores":%d,"scale":%g}`, testCores, testScale)},
	}

	bodies := make([][]byte, clients)
	var wg sync.WaitGroup
	wg.Add(clients)
	for i := 0; i < clients; i++ {
		go func(i int) {
			defer wg.Done()
			cl := classes[i%len(classes)]
			status, body := post(t, ts, cl.path, cl.body)
			if status != http.StatusOK {
				t.Errorf("client %d: status %d: %s", i, status, body)
				return
			}
			bodies[i] = body
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	// Identical requests must have received identical bytes.
	for i := range bodies {
		if j := i % len(classes); !bytes.Equal(bodies[i], bodies[j]) {
			t.Errorf("clients %d and %d sent identical requests but got different bodies", i, j)
		}
	}

	status, body := get(t, ts, "/v1/stats")
	if status != http.StatusOK {
		t.Fatalf("stats: status %d: %s", status, body)
	}
	var st server.Stats
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("decoding stats: %v", err)
	}
	if st.PeakInFlight > maxInFlight {
		t.Errorf("peak_in_flight = %d exceeds the admission bound %d", st.PeakInFlight, maxInFlight)
	}
	if st.InFlight != 0 || st.Queued != 0 {
		t.Errorf("idle server reports in_flight=%d queued=%d, want 0/0", st.InFlight, st.Queued)
	}
	// 64 requests over 4 distinct bodies: duplicates must have been
	// deduplicated somewhere — joined onto an in-flight identical request,
	// or served from the session cache — never re-simulated. Misses counts
	// simulations scheduled; the four classes need at most 2+2+6+1 = 11
	// (the six-way protocol comparison dominates).
	if st.CoalescedRequests+st.Session.Hits+st.Session.Coalesced == 0 {
		t.Errorf("no coalescing observed across %d overlapping requests: %+v", clients, st)
	}
	if st.Session.Misses > 11 {
		t.Errorf("session scheduled %d simulations, want <= 11 distinct", st.Session.Misses)
	}
	if st.Rejected != 0 {
		t.Errorf("rejected = %d with a %d-deep queue, want 0", st.Rejected, 64)
	}
	if st.Executed == 0 || st.Executed+st.CoalescedRequests < clients {
		t.Errorf("executed (%d) + coalesced (%d) < clients (%d)", st.Executed, st.CoalescedRequests, clients)
	}
}

// TestEndpointsAndValidation covers the small endpoints and the 400
// surface.
func TestEndpointsAndValidation(t *testing.T) {
	ts := newTestServer(t, server.Config{MaxInFlight: 2, MaxCores: 64, MaxScale: 2})

	if status, body := get(t, ts, "/v1/healthz"); status != http.StatusOK || !bytes.Contains(body, []byte(`"ok"`)) {
		t.Errorf("healthz: %d %s", status, body)
	}

	status, body := get(t, ts, "/v1/workloads")
	if status != http.StatusOK {
		t.Fatalf("workloads: %d %s", status, body)
	}
	var catalog []server.WorkloadInfo
	if err := json.Unmarshal(body, &catalog); err != nil {
		t.Fatalf("decoding workloads: %v", err)
	}
	if len(catalog) != len(lacc.Workloads()) {
		t.Errorf("catalog lists %d workloads, want %d", len(catalog), len(lacc.Workloads()))
	}

	for _, tc := range []struct {
		name, path, body string
		wantStatus       int
	}{
		{"unknown workload", "/v1/run", `{"workload":"nope"}`, 400},
		{"missing workload", "/v1/run", `{}`, 400},
		{"unknown field", "/v1/run", `{"workload":"matmul","tpyo":1}`, 400},
		{"cores over cap", "/v1/run", `{"workload":"matmul","cores":128}`, 400},
		{"scale over cap", "/v1/run", `{"workload":"matmul","scale":3}`, 400},
		{"bad mesh", "/v1/run", `{"workload":"matmul","cores":8,"mesh_width":3}`, 400},
		{"bad pct", "/v1/experiments/pct-sweep", `{"pcts":[0]}`, 400},
		{"bad protocol", "/v1/experiments/protocols", `{"protocols":["moesi"]}`, 400},
		{"bad figure", "/v1/experiments/figures", `{"figure":"fig99"}`, 400},
		{"missing figure", "/v1/experiments/figures", `{}`, 400},
		{"bad benchmark", "/v1/experiments/victim", `{"benchmarks":["nope"]}`, 400},
		{"bad override protocol", "/v1/run", `{"workload":"matmul","config":{"protocol":"nope"}}`, 400},
		{"victim replication under mesi", "/v1/run", `{"workload":"matmul","config":{"protocol":"mesi","victim_replication":true}}`, 400},
		{"bad format", "/v1/run?format=txet", `{"workload":"matmul"}`, 400},
		{"text format with SSE", "/v1/run?format=text&stream=sse", `{"workload":"matmul"}`, 400},
	} {
		t.Run(tc.name, func(t *testing.T) {
			status, body := post(t, ts, tc.path, tc.body)
			if status != tc.wantStatus {
				t.Errorf("%s %s: status %d (want %d): %s", tc.path, tc.body, status, tc.wantStatus, body)
			}
			if !bytes.Contains(body, []byte(`"error"`)) {
				t.Errorf("error response carries no error field: %s", body)
			}
		})
	}

	if status, body := post(t, ts, "/v1/experiments/figures",
		fmt.Sprintf(`{"cores":%d,"scale":%g,"benchmarks":["matmul"],"figure":"fig14"}`, testCores, testScale)); status != http.StatusOK {
		t.Errorf("figures fig14: %d %s", status, body)
	}
	if status, body := post(t, ts, "/v1/experiments/figures", `{"figure":"storage"}`); status != http.StatusOK || !bytes.Contains(body, []byte("Limited3KB")) {
		t.Errorf("figures storage: %d %.120s", status, body)
	}

	// format=text renders the paper-style table.
	status, body = post(t, ts, "/v1/experiments/protocols?format=text",
		fmt.Sprintf(`{"cores":%d,"scale":%g,"benchmarks":["matmul"]}`, testCores, testScale))
	if status != http.StatusOK || !bytes.Contains(body, []byte("geomeans normalized")) {
		t.Errorf("format=text: %d %.120s", status, body)
	}
}

// TestAdminFlush asserts the flush endpoint resets the session cache: a
// repeated sweep after a flush re-simulates (misses again) instead of
// hitting.
func TestAdminFlush(t *testing.T) {
	ts := newTestServer(t, server.Config{MaxInFlight: 2, Parallelism: 2})
	body := fmt.Sprintf(`{"cores":%d,"scale":%g,"benchmarks":["matmul"],"pcts":[1,2]}`, testCores, testScale)

	if status, b := post(t, ts, "/v1/experiments/pct-sweep", body); status != http.StatusOK {
		t.Fatalf("first sweep: %d %s", status, b)
	}
	if status, b := post(t, ts, "/v1/admin/flush", ""); status != http.StatusOK {
		t.Fatalf("flush: %d %s", status, b)
	}
	if status, b := post(t, ts, "/v1/experiments/pct-sweep", body); status != http.StatusOK {
		t.Fatalf("post-flush sweep: %d %s", status, b)
	}
	_, b := get(t, ts, "/v1/stats")
	var st server.Stats
	if err := json.Unmarshal(b, &st); err != nil {
		t.Fatal(err)
	}
	if st.Session.Misses != 2 || st.Session.Hits != 0 {
		t.Errorf("post-flush session = %+v, want 2 fresh misses, 0 hits", st.Session)
	}
	if st.Flushes != 1 {
		t.Errorf("flushes = %d, want 1", st.Flushes)
	}
}

// TestSSEProgressStream asserts the stream shape: at least one progress
// event with a coherent total, then a result event whose payload equals
// the plain JSON response for the same request.
func TestSSEProgressStream(t *testing.T) {
	ts := newTestServer(t, server.Config{MaxInFlight: 2, Parallelism: 2})
	body := fmt.Sprintf(`{"cores":%d,"scale":%g,"benchmarks":["matmul"],"pcts":[1,2,3]}`, testCores, testScale)

	resp, err := http.Post(ts.URL+"/v1/experiments/pct-sweep?stream=sse", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q, want text/event-stream", ct)
	}
	// Connection is hop-by-hop and forbidden in HTTP/2 responses; the
	// handler must not set it.
	if c := resp.Header.Get("Connection"); c != "" {
		t.Errorf("Connection header %q set on SSE response", c)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	events := parseSSE(t, string(raw))
	if len(events) < 2 {
		t.Fatalf("got %d events, want at least a progress and a result: %q", len(events), raw)
	}
	var sawProgress bool
	for _, ev := range events[:len(events)-1] {
		if ev.name != "progress" {
			t.Errorf("interior event %q, want progress", ev.name)
		}
		var p struct{ Done, Total int }
		if err := json.Unmarshal([]byte(ev.data), &p); err != nil {
			t.Errorf("bad progress payload %q: %v", ev.data, err)
		}
		if p.Total != 3 {
			t.Errorf("progress total = %d, want 3 simulations", p.Total)
		}
		sawProgress = true
	}
	if !sawProgress {
		t.Error("no progress events")
	}
	last := events[len(events)-1]
	if last.name != "result" {
		t.Fatalf("final event %q, want result", last.name)
	}

	// The result payload must equal the plain (non-SSE) response body.
	status, plain := post(t, ts, "/v1/experiments/pct-sweep", body)
	if status != http.StatusOK {
		t.Fatalf("plain request: %d %s", status, plain)
	}
	if got := strings.TrimRight(last.data, "\n"); got != strings.TrimRight(string(plain), "\n") {
		t.Errorf("SSE result differs from plain response\nsse:   %.200s\nplain: %.200s", got, plain)
	}
}

// sseEvent is one parsed server-sent event.
type sseEvent struct{ name, data string }

// parseSSE splits a raw event-stream body into events.
func parseSSE(t *testing.T, raw string) []sseEvent {
	t.Helper()
	var out []sseEvent
	for _, block := range strings.Split(raw, "\n\n") {
		block = strings.TrimSpace(block)
		if block == "" {
			continue
		}
		var ev sseEvent
		for _, line := range strings.Split(block, "\n") {
			switch {
			case strings.HasPrefix(line, "event: "):
				ev.name = strings.TrimPrefix(line, "event: ")
			case strings.HasPrefix(line, "data: "):
				ev.data = strings.TrimPrefix(line, "data: ")
			}
		}
		if ev.name == "" && ev.data == "" {
			t.Fatalf("unparseable SSE block %q", block)
		}
		out = append(out, ev)
	}
	return out
}

// TestClientDisconnect cancels a request mid-flight and asserts the
// server stays healthy and the same request completes afterwards.
func TestClientDisconnect(t *testing.T) {
	ts := newTestServer(t, server.Config{MaxInFlight: 1, Parallelism: 1})
	body := fmt.Sprintf(`{"cores":%d,"scale":%g,"benchmarks":["matmul","dfs"],"pcts":[1,2,3,4]}`, testCores, testScale)

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		ts.URL+"/v1/experiments/pct-sweep", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	<-done

	// The abandoned fingerprints were unpinned; the retry must succeed
	// and produce the complete sweep.
	status, b := post(t, ts, "/v1/experiments/pct-sweep", body)
	if status != http.StatusOK {
		t.Fatalf("retry after disconnect: %d %s", status, b)
	}
	var sweep struct{ PCTs []int }
	if err := json.Unmarshal(b, &sweep); err != nil {
		t.Fatal(err)
	}
	if len(sweep.PCTs) != 4 {
		t.Errorf("retry sweep has %d PCTs, want 4", len(sweep.PCTs))
	}
}

// noFlush hides the ResponseRecorder's Flush method, modeling a
// middleware-wrapped writer that cannot stream.
type noFlush struct{ http.ResponseWriter }

// TestSSERejectsNonFlusher: a response writer without http.Flusher must
// fail the stream upgrade at dispatch with a plain JSON error — before
// the SSE content type is committed and before the experiment runs — not
// serve a "stream" that sits in the write buffer until completion.
func TestSSERejectsNonFlusher(t *testing.T) {
	h := server.New(server.Config{MaxInFlight: 1, Parallelism: 1})
	body := fmt.Sprintf(`{"cores":%d,"scale":%g,"benchmarks":["matmul"],"pcts":[1]}`, testCores, testScale)
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost,
		"/v1/experiments/pct-sweep?stream=sse", strings.NewReader(body))
	h.ServeHTTP(noFlush{rec}, req)

	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500; body %q", rec.Code, rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q, want application/json", ct)
	}
	if got := rec.Body.String(); !strings.Contains(got, "streaming unsupported") {
		t.Errorf("error body %q does not name the streaming failure", got)
	}
	if strings.Contains(rec.Body.String(), "event:") {
		t.Errorf("rejected upgrade still emitted SSE events: %q", rec.Body.String())
	}

	// The same writer with Flush present streams normally.
	rec = httptest.NewRecorder()
	req = httptest.NewRequest(http.MethodPost,
		"/v1/experiments/pct-sweep?stream=sse", strings.NewReader(body))
	h.ServeHTTP(rec, req)
	if ct := rec.Header().Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("flushing writer got Content-Type %q, want text/event-stream", ct)
	}
}

// TestDrainEndsSSEWithFinalEvent: once Drain is called, an SSE request is
// still answered on a committed 200 stream but terminates with an
// explicit error event naming the shutdown, instead of hanging until the
// experiment completes or the connection is torn down silently.
func TestDrainEndsSSEWithFinalEvent(t *testing.T) {
	h := server.New(server.Config{MaxInFlight: 1, Parallelism: 1})
	ts := httptest.NewServer(h)
	defer ts.Close()
	h.Drain()
	h.Drain() // idempotent

	body := fmt.Sprintf(`{"cores":%d,"scale":%g,"benchmarks":["matmul"],"pcts":[1,2,3,4]}`, testCores, testScale)
	resp, err := http.Post(ts.URL+"/v1/experiments/pct-sweep?stream=sse",
		"application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200 (SSE commits before execution)", resp.StatusCode)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	events := parseSSE(t, string(raw))
	if len(events) == 0 {
		t.Fatal("draining server closed the stream with no terminal event")
	}
	last := events[len(events)-1]
	if last.name != "error" || !strings.Contains(last.data, "shutting down") {
		t.Fatalf("terminal event = %q %q, want an error naming the shutdown", last.name, last.data)
	}
}
