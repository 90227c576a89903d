// Command perfbench is the lacc benchmark. It runs one workload for a
// fixed time, checks every output, and prints every end-to-end metric (or,
// with -trace 1, every per-layer metric) as the last line of standard
// output:
//
//	bash perfbench/run.sh --workload sweep64 --seed 1 --seconds 25 --trace 0
//
// Workloads (see workloadFor): sweep64, mesh256, serve and check. The seed
// only shapes the generated inputs (workload traces, request seeds, the page
// of the model-checked lines); the program under test sees nothing else of it.
//
// A run first sets the workload up setupRepeats times and reports the
// median as setup_s, so work moved into set-up shows. It then repeats the
// workload's pass until the time is up. End-to-end metrics come from
// untraced runs. A traced run alternates traced and untraced passes (their
// difference is the tracing overhead), replays the workload's own corpora
// layer by layer, runs the fixed layer suite, writes its spans under the
// output directory and prints per-layer self times.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// setupRepeats is how many times a run sets its workload up.
const setupRepeats = 5

// passOutcome is what one pass of a workload did.
type passOutcome struct {
	wall     time.Duration
	traced   bool
	ops      int     // operations attempted: simulations, requests or protocol checks
	failed   int     // operations that failed or produced wrong output
	accesses float64 // simulated data accesses (check: explored transitions)
	// idle is the time the pass's workers sat idle while the pass ran:
	// its long-pole tail. Measured on traced passes only.
	idle time.Duration
	// tiers counts answers per serving tier: simulated, memory, disk, peer.
	tiers [4]float64
}

// workload is one benchmark workload.
type workload interface {
	// setup builds everything a pass needs; it is called setupRepeats
	// times, each time after close.
	setup() error
	// pass runs the workload once. A nil tracer runs it untraced.
	pass(tr *tracer, parent int64) passOutcome
	// layers replays the workload's own inputs layer by layer and returns
	// the workload-derived per-layer metrics.
	layers(tr *tracer, parent int64, passes []passOutcome) (map[string]float64, error)
	// info returns lines describing the run that the metrics do not carry
	// (digests, simulated ratios, per-tier latencies with sample counts).
	info() []string
	close()
}

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "workload: sweep64, mesh256, serve or check")
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 25, "measured seconds")
	traceFlag := flag.Int("trace", 0, "1 runs traced and reports per-layer metrics")
	root := flag.String("root", ".", "repository root")
	out := flag.String("out", ".bench_build", "directory for scratch files and spans")
	record := flag.Int("record", 0, "instead of measuring, record expected outputs for seeds 0..n-1 of the workload into perfbench/expected.json")
	flag.Parse()

	runDir := filepath.Join(*out, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(runDir)

	if *record > 0 {
		if err := recordExpected(*root, runDir, *name, *record); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	w, err := workloadFor(*name, *seed, runDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	host, _ := json.Marshal(map[string]any{"host": fingerprint(*root, *seed), "workload": *name})
	fmt.Println(string(host))

	line, err := measure(w, *name, *seed, time.Duration(*seconds)*time.Second, *traceFlag == 1, *out, runDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// workloadFor returns the named workload for seed; dir is its scratch
// directory.
func workloadFor(name string, seed uint64, dir string) (workload, error) {
	switch name {
	case "sweep64":
		return newSweep64(seed), nil
	case "mesh256":
		return newMesh256(seed), nil
	case "serve":
		return newServe(seed, dir), nil
	case "check":
		return newCheck(seed), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want sweep64, mesh256, serve or check)", name)
}

func measure(w workload, name string, seed uint64, budget time.Duration, traced bool, out, runDir string) ([]byte, error) {
	defer w.close()
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		if i > 0 {
			w.close()
		}
		runtime.GC()
		t0 := time.Now()
		if err := w.setup(); err != nil {
			return nil, fmt.Errorf("%s set-up: %w", name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	var tr *tracer
	if traced {
		tr = newTracer()
	}
	passes := runPasses(w, tr, budget)
	attempted, failed := 0, 0
	var walls, rates []float64
	for _, p := range passes {
		attempted += p.ops
		failed += p.failed
		if !p.traced {
			walls = append(walls, p.wall.Seconds())
			rates = append(rates, p.accesses/p.wall.Seconds()/1e6)
		}
	}
	defs, vals := endToEnd, map[string]float64{
		"setup_s":           median(setups),
		"wall_s":            median(walls),
		"sim_maccess_per_s": median(rates),
		"rss_peak_mb":       peakRSSMB(),
	}
	if traced {
		var err error
		defs = perLayer
		if vals, err = layerValues(w, name, tr, passes, runDir); err != nil {
			return nil, err
		}
		if err := reportSpans(tr, filepath.Join(out, fmt.Sprintf("spans-%s-seed%d.jsonl", name, seed))); err != nil {
			return nil, err
		}
	}
	for _, l := range w.info() {
		fmt.Println("# " + l)
	}
	fmt.Printf("# operations: attempted %d failed %d fail_ratio %.4f\n", attempted, failed, float64(failed)/float64(max(attempted, 1)))
	sm := summarize(walls)
	fmt.Printf("# untraced passes: %d, wall_s median %.4f q1 %.4f q3 %.4f; setup_s samples %.4f\n",
		sm.N, sm.Median, sm.Q1, sm.Q3, setups)
	return resultLine(defs, vals, attempted, failed, failed == 0)
}

// runPasses repeats the workload's pass until the budget is spent, at
// least twice. With a tracer, odd passes are traced and even ones are
// not, so the two kinds see the same host conditions.
func runPasses(w workload, tr *tracer, budget time.Duration) []passOutcome {
	var passes []passOutcome
	var walls []float64
	start := time.Now()
	for len(passes) < 2 || time.Since(start).Seconds()+median(walls) <= budget.Seconds() {
		ptr := tr
		if len(passes)%2 == 0 {
			ptr = nil
		}
		runtime.GC()
		id := ptr.start("pass", 0, 0)
		p := w.pass(ptr, id)
		ptr.end(id)
		p.traced = ptr != nil
		passes = append(passes, p)
		walls = append(walls, p.wall.Seconds())
	}
	return passes
}

// layerValues returns every per-layer metric: the tracing overhead, the
// workload's own layer replay and the fixed layer suite.
func layerValues(w workload, name string, tr *tracer, passes []passOutcome, runDir string) (map[string]float64, error) {
	var tw, uw []float64
	for _, p := range passes {
		if p.traced {
			tw = append(tw, p.wall.Seconds())
		} else {
			uw = append(uw, p.wall.Seconds())
		}
	}
	vals := map[string]float64{"trace.overhead_pct": (median(tw) - median(uw)) / median(uw) * 100}
	id := tr.start("layers."+name, 0, 0)
	wl, err := w.layers(tr, id, passes)
	tr.end(id)
	if err != nil {
		return nil, fmt.Errorf("%s layer replay: %w", name, err)
	}
	id = tr.start("layers.suite", 0, 0)
	sv, err := runSuite(tr, id, runDir)
	tr.end(id)
	if err != nil {
		return nil, fmt.Errorf("layer suite: %w", err)
	}
	for _, m := range []map[string]float64{wl, sv} {
		for k, v := range m {
			vals[k] = v
		}
	}
	return vals, nil
}

// reportSpans writes the spans to path and prints self time per span name
// and the end-to-end metric each per-layer metric should move.
func reportSpans(tr *tracer, path string) error {
	if err := tr.write(path); err != nil {
		return err
	}
	fmt.Printf("# spans written to %s\n", path)
	fmt.Printf("# %-40s %8s %12s %12s\n", "span", "count", "total_ms", "self_ms")
	for _, lt := range tr.selfTimes() {
		fmt.Printf("# %-40s %8d %12.3f %12.3f\n", lt.Name, lt.Count,
			float64(lt.Total)/1e6, float64(lt.Self)/1e6)
	}
	for _, d := range perLayer {
		fmt.Printf("# layer %-40s should move: %s\n", d.Name, d.Moves)
	}
	return nil
}
