// Command lacc-bench regenerates the tables and figures of the paper's
// evaluation section.
//
// Usage:
//
//	lacc-bench [flags] <experiment> [<experiment>...]
//	lacc-bench -quick all
//
// Experiments: fig1, fig2, fig8, fig9, fig10, fig11, fig12, fig13, fig14,
// table1, table2, storage, ackwise, protocols, all. Figures 8-11 draw on
// PCT sweeps whose common points simulate once per invocation, however many
// of them are requested.
// The protocols experiment runs every registered coherence protocol side
// by side: full-map MESI, Dragon write-update, directoryless DLS, the
// self-invalidating Neat, the per-line MESI/Dragon hybrid and the
// locality-aware adaptive protocol.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"lacc/internal/experiments"
	"lacc/internal/sim"
	"lacc/internal/store"
	"lacc/internal/workloads"
)

// allExperiments is what `all` renders, in order. fig1 renders Figures 1
// and 2 together, so fig2 (the same output) is not listed again.
var allExperiments = []string{
	"table1", "table2", "storage", "storage-scaling",
	"fig1", "fig8", "fig9", "fig10", "fig11",
	"fig12", "fig13", "fig14", "ackwise", "scaling", "vr",
	"protocols",
}

func main() {
	var (
		cores     = flag.Int("cores", 64, "number of cores (tiles)")
		meshWidth = flag.Int("mesh-width", 0, "mesh X dimension (0 = auto)")
		scale     = flag.Float64("scale", 1.0, "problem-size multiplier")
		seed      = flag.Uint64("seed", 0, "workload randomness seed")
		benches   = flag.String("benchmarks", "", "comma-separated benchmark subset (default: all 21)")
		parallel  = flag.Int("parallel", 0, "concurrent simulations (0 = GOMAXPROCS)")
		quick     = flag.Bool("quick", false, "reduced machine (16 cores, scale 0.25) for a fast pass")
		timing    = flag.Bool("time", true, "report wall-clock time per experiment")
		jsonOut   = flag.Bool("json", false, "benchcore: emit results as JSON to stdout")
		checkFile = flag.String("check-bench", "", "benchcore: compare allocs/op against this baseline JSON, exit nonzero on >20% regression")
		storeDir  = flag.String("store-dir", "", "persist simulation results to this directory and reuse them across invocations")
		spillDir  = flag.String("corpus-spill", "", "spill materialized traces above -corpus-spill-min accesses to this directory (for large -scale runs)")
		spillMin  = flag.Uint64("corpus-spill-min", 8<<20, "minimum corpus size in accesses before spilling to -corpus-spill")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile of the whole invocation to this file (go tool pprof)")
		memProf   = flag.String("memprofile", "", "write an allocation profile to this file on exit (go tool pprof)")
	)
	flag.Parse()

	// Profiling hooks, so hot-loop work on the simulator is measurable on
	// the real experiment workloads without hand-editing the harness:
	//
	//	lacc-bench -cpuprofile cpu.out -quick fig8
	//	go tool pprof -top cpu.out
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fatal(fmt.Errorf("-cpuprofile: %w", err))
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(fmt.Errorf("-cpuprofile: %w", err))
		}
		prev := flushProfiles
		flushProfiles = func() {
			pprof.StopCPUProfile()
			f.Close()
			prev()
		}
	}
	if *memProf != "" {
		path := *memProf
		prev := flushProfiles
		flushProfiles = func() {
			f, err := os.Create(path)
			if err != nil {
				fmt.Fprintln(os.Stderr, "lacc-bench: -memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // materialize the final live set
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "lacc-bench: -memprofile:", err)
			}
			prev()
		}
	}
	defer flushProfilesOnce()

	if *spillDir != "" {
		if err := workloads.SetCorpusSpill(*spillDir, *spillMin); err != nil {
			fatal(fmt.Errorf("-corpus-spill: %w", err))
		}
	}

	// One session for the whole invocation: experiments share simulation
	// results (figures 8-11 share most PCT points) and pooled simulators.
	// With -store-dir the session also reads and writes a durable result
	// store, so re-running the same figures costs decode time, not
	// simulation time — even across invocations.
	session := experiments.NewSession()
	if *storeDir != "" {
		st, err := store.Open(store.Options{Dir: *storeDir})
		if err != nil {
			fatal(fmt.Errorf("-store-dir: %w", err))
		}
		defer func() {
			if err := st.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "lacc-bench: closing result store:", err)
			}
		}()
		session = experiments.NewSessionWithStore(st, nil)
	}
	opts := experiments.Options{
		Cores:       *cores,
		MeshWidth:   *meshWidth,
		Scale:       *scale,
		Seed:        *seed,
		Parallelism: *parallel,
		Session:     session,
	}
	if *quick {
		opts.Cores = 16
		opts.MeshWidth = 4
		opts.Scale = 0.25
	}
	if *benches != "" {
		for _, b := range strings.Split(*benches, ",") {
			b = strings.TrimSpace(b)
			if _, ok := workloads.ByName(b); !ok {
				fatal(fmt.Errorf("unknown benchmark %q", b))
			}
			opts.Benchmarks = append(opts.Benchmarks, b)
		}
	}

	requested := flag.Args()
	if len(requested) == 0 {
		fmt.Fprintf(os.Stderr, "usage: lacc-bench [flags] <experiment>...\nexperiments: %s, all, benchcore\n",
			strings.Join(allExperiments, ", "))
		os.Exit(2)
	}
	var list []string
	for _, r := range requested {
		if r == "all" {
			list = append(list, allExperiments...)
			continue
		}
		list = append(list, r)
	}

	r := runner{opts: opts, timing: *timing, jsonOut: *jsonOut, checkFile: *checkFile}
	for _, name := range list {
		if err := r.run(name); err != nil {
			fatal(err)
		}
		fmt.Println()
	}
}

// runner renders one experiment at a time. Experiments that share runs
// (figures 1 and 2, the PCT points of figures 8-11) share them through
// the session in opts, which simulates each distinct run once.
type runner struct {
	opts      experiments.Options
	timing    bool
	jsonOut   bool
	checkFile string
}

func (r *runner) run(name string) error {
	start := time.Now()
	var err error
	switch name {
	case "table1":
		cfg := r.opts.Config
		if cfg == nil {
			d := sim.Default()
			d.Cores = r.opts.Cores
			cfg = &d
		}
		err = experiments.RenderTable1(*cfg, os.Stdout)
	case "table2":
		err = experiments.RenderTable2(os.Stdout)
	case "storage":
		err = experiments.Storage(sim.Default()).Render(os.Stdout)
	case "fig1", "fig2":
		err = render(experiments.Fig1And2(r.opts))
	case "fig8":
		err = renderSweep(r.opts, experiments.Fig8PCTs, (*experiments.PCTSweep).RenderFig8)
	case "fig9":
		err = renderSweep(r.opts, experiments.Fig8PCTs, (*experiments.PCTSweep).RenderFig9)
	case "fig10":
		err = renderSweep(r.opts, experiments.Fig10PCTs, (*experiments.PCTSweep).RenderFig10)
	case "fig11":
		err = renderSweep(r.opts, experiments.Fig11PCTs, func(sw *experiments.PCTSweep, w io.Writer) error {
			return sw.Fig11().Render(w)
		})
	case "fig12":
		err = render(experiments.Fig12(r.opts))
	case "fig13":
		err = render(experiments.Fig13(r.opts))
	case "fig14":
		err = render(experiments.Fig14(r.opts))
	case "ackwise":
		err = render(experiments.AckwiseComparison(r.opts, nil))
	case "protocols":
		err = render(experiments.ProtocolComparison(r.opts, nil))
	case "storage-scaling":
		err = experiments.StorageScaling(nil).Render(os.Stdout)
	case "vr":
		err = render(experiments.VictimReplication(r.opts))
	case "scaling":
		err = render(experiments.PerformanceScaling(r.opts, nil))
	case "benchcore":
		// The benchmark-regression harness (see benchcore.go). Not part of
		// `all`: it re-runs simulations many times to get stable numbers.
		err = runBenchCore(r.jsonOut, r.checkFile)
	default:
		return fmt.Errorf("unknown experiment %q (want one of %s, all)",
			name, strings.Join(allExperiments, ", "))
	}
	if err != nil {
		return err
	}
	if r.timing {
		// With -json the documented redirection (`lacc-bench -json
		// benchcore > BENCH_core.json`) must stay valid JSON, so the
		// timing line moves to stderr.
		out := os.Stdout
		if r.jsonOut {
			out = os.Stderr
		}
		fmt.Fprintf(out, "[%s in %v]\n", name, time.Since(start).Round(time.Millisecond))
	}
	return nil
}

// render prints an experiment's result to stdout, or returns the error
// that stopped the experiment.
func render(r interface{ Render(io.Writer) error }, err error) error {
	if err != nil {
		return err
	}
	return r.Render(os.Stdout)
}

// renderSweep runs the PCT sweep over pcts and prints the figure fig
// draws from it.
func renderSweep(o experiments.Options, pcts []int, fig func(*experiments.PCTSweep, io.Writer) error) error {
	sw, err := experiments.RunPCTSweep(o, pcts)
	if err != nil {
		return err
	}
	return fig(sw, os.Stdout)
}

// flushProfiles finalizes any -cpuprofile/-memprofile outputs; fatal and
// main's defer both route through flushProfilesOnce so profiles survive
// error exits (os.Exit skips defers).
var (
	flushProfiles = func() {}
	profilesDone  bool
)

func flushProfilesOnce() {
	if !profilesDone {
		profilesDone = true
		flushProfiles()
	}
}

func fatal(err error) {
	flushProfilesOnce()
	fmt.Fprintln(os.Stderr, "lacc-bench:", err)
	os.Exit(1)
}
