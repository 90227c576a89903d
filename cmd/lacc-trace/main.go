// Command lacc-trace records benchmark traces to a compact binary file,
// inspects them, and replays them through the simulator. Recorded traces
// decouple workload generation from protocol evaluation: the exact same
// access sequence can be replayed under different protocol configurations.
//
// Usage:
//
//	lacc-trace record -workload streamcluster -o sc.trace
//	lacc-trace info sc.trace
//	lacc-trace replay -pct 4 sc.trace
package main

import (
	"flag"
	"fmt"
	"os"

	"lacc"
	"lacc/internal/mem"
	"lacc/internal/report"
	"lacc/internal/trace"
	"lacc/internal/workloads"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "record":
		record(os.Args[2:])
	case "info":
		info(os.Args[2:])
	case "replay":
		replay(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: lacc-trace record|info|replay [flags] [file]")
	os.Exit(2)
}

func record(args []string) {
	fs := flag.NewFlagSet("record", flag.ExitOnError)
	workload := fs.String("workload", "streamcluster", "benchmark to record")
	cores := fs.Int("cores", 64, "number of cores")
	scale := fs.Float64("scale", 1.0, "problem-size multiplier")
	seed := fs.Uint64("seed", 0, "workload randomness seed")
	out := fs.String("o", "", "output file (required)")
	fs.Parse(args)
	if *out == "" {
		fatal(fmt.Errorf("record: -o is required"))
	}

	w, ok := workloads.ByName(*workload)
	if !ok {
		fatal(fmt.Errorf("unknown workload %q", *workload))
	}
	// The build streams each core's accesses to disk as it is generated,
	// so memory stays bounded by one core's sequence.
	sc, err := trace.BuildSpilledCorpus(w.Build(workloads.Spec{Cores: *cores, Scale: *scale, Seed: *seed}), *out)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("recorded %s: %d cores, %d accesses", *workload, sc.Cores(), sc.Total())
	if st, err := os.Stat(*out); err == nil && sc.Total() > 0 {
		fmt.Printf(", %d bytes (%.2f B/access)", st.Size(), float64(st.Size())/float64(sc.Total()))
	}
	fmt.Println()
}

// open indexes a trace file for streaming: info and replay decode each
// core's section in chunks, so memory stays bounded by one chunk per core
// rather than the whole trace.
func open(path string) *trace.SpilledCorpus {
	sc, err := trace.OpenSpilledCorpus(path)
	if err != nil {
		fatal(err)
	}
	return sc
}

func info(args []string) {
	fs := flag.NewFlagSet("info", flag.ExitOnError)
	fs.Parse(args)
	if fs.NArg() != 1 {
		usage()
	}
	sc := open(fs.Arg(0))

	t := report.NewTable(fmt.Sprintf("%s: %d cores", fs.Arg(0), sc.Cores()),
		"core", "reads", "writes", "barriers", "locks", "compute-cycles", "footprint-lines")
	var tr, tw, tb, tl, tc uint64
	global := map[mem.Addr]struct{}{}
	for c := 0; c < sc.Cores(); c++ {
		var r, w, b, l, comp uint64
		lines := map[mem.Addr]struct{}{}
		stream := sc.Stream(c)
		for a, ok := stream.Next(); ok; a, ok = stream.Next() {
			comp += uint64(a.Gap)
			switch a.Kind {
			case mem.Read:
				r++
				lines[mem.LineOf(a.Addr)] = struct{}{}
				global[mem.LineOf(a.Addr)] = struct{}{}
			case mem.Write:
				w++
				lines[mem.LineOf(a.Addr)] = struct{}{}
				global[mem.LineOf(a.Addr)] = struct{}{}
			case mem.Barrier:
				b++
			case mem.Lock:
				l++
			}
		}
		stream.Close()
		t.AddRowValues(c, r, w, b, l, comp, len(lines))
		tr, tw, tb, tl, tc = tr+r, tw+w, tb+b, tl+l, tc+comp
	}
	t.AddRowValues("total", tr, tw, tb, tl, tc, len(global))
	if err := t.Write(os.Stdout); err != nil {
		fatal(err)
	}
}

func replay(args []string) {
	fs := flag.NewFlagSet("replay", flag.ExitOnError)
	protocol := fs.String("protocol", "adaptive", "coherence protocol: adaptive, mesi, dragon, dls, neat, hybrid")
	pct := fs.Int("pct", 4, "private caching threshold")
	classifier := fs.Int("classifier-k", 3, "Limited-k classifier size (0 = Complete)")
	meshWidth := fs.Int("mesh-width", 0, "mesh X dimension (0 = auto)")
	fs.Parse(args)
	if fs.NArg() != 1 {
		usage()
	}
	sc := open(fs.Arg(0))

	cfg := lacc.DefaultConfig()
	cfg.Cores = sc.Cores()
	cfg.MeshWidth = autoWidth(cfg.Cores, *meshWidth)
	if cfg.MemControllers > cfg.Cores {
		cfg.MemControllers = cfg.Cores
	}
	cfg.ProtocolKind = lacc.ProtocolKind(*protocol)
	cfg.Protocol.PCT = *pct
	cfg.ClassifierK = *classifier

	res, err := lacc.Run(cfg, sc.Streams())
	if err != nil {
		fatal(err)
	}
	fmt.Printf("replayed %s under protocol=%s pct=%d classifier-k=%d\n",
		fs.Arg(0), res.Protocol, *pct, *classifier)
	fmt.Printf("completion: %d cycles, energy: %.0f pJ, L1-D miss rate: %.2f%%\n",
		res.CompletionCycles, res.Energy.Total(), res.L1DMissRate())
	fmt.Printf("word accesses: %d reads, %d writes; updates: %d; invalidations: %d\n",
		res.WordReads, res.WordWrites, res.UpdateWrites, res.Invalidations)
}

func autoWidth(cores, flagWidth int) int {
	if flagWidth > 0 {
		return flagWidth
	}
	best := 1
	for w := 1; w*w <= cores; w++ {
		if cores%w == 0 {
			best = w
		}
	}
	return best
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "lacc-trace:", err)
	os.Exit(1)
}
