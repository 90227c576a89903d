// Command lacc-check runs the bounded explicit-state model checker over
// the simulator's coherence protocols. It explores every interleaving of
// a small access alphabet (each core reading and writing a few shared
// lines) up to a depth bound, verifying SWMR, the data-value invariant
// and directory/cache structural agreement at every reachable state.
//
// A violation exits non-zero and prints the interleaving plus its
// counterexample encoded as a trace-format program; -o saves that trace
// for replay with lacc-trace or as a permanent regression input.
//
// The -self-test mode seeds a known protocol defect (dropped
// invalidations; dropped update pushes for Dragon and hybrid; dropped
// remote word writes for DLS) and requires the checker to find it and to
// close the loop: the counterexample must fail when replayed under the
// fault and pass on a healthy simulator. It guards the checker itself
// against silently losing its teeth.
//
// Usage:
//
//	lacc-check -protocol all
//	lacc-check -protocol adaptive -cores 3 -depth 8
//	lacc-check -protocol all -self-test
//	lacc-check -protocol mesi -self-test -o mesi-swmr.trace
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"lacc/internal/check"
	"lacc/internal/mem"
	"lacc/internal/sim"
	"lacc/internal/trace"
)

// variant is one protocol configuration under test.
type variant struct {
	name    string
	kind    sim.ProtocolKind
	ackwise int // directory pointer override; 0 keeps the default (full-map)

	// tweak, when set, adjusts the bounded configuration: the paper's
	// adaptive axes that the six kinds alone never reach at 2 cores.
	tweak func(*sim.Config)

	// selfFault is the defect -self-test seeds: Dragon's update pushes are
	// its sole write-propagation mechanism, the others rely on
	// invalidations.
	selfFault sim.Faults
}

var variants = []variant{
	{"adaptive", sim.ProtocolAdaptive, 0, nil, sim.Faults{DropInvalidations: true}},
	{"adaptive-ackwise1", sim.ProtocolAdaptive, 1, nil, sim.Faults{DropInvalidations: true}},
	// Limited-1 at 2 cores: the only classifier that runs Section 3.4's
	// replacement and majority vote in the 2-core model.
	{"adaptive-k1", sim.ProtocolAdaptive, 0, func(c *sim.Config) { c.ClassifierK = 1 }, sim.Faults{DropInvalidations: true}},
	// Adapt1-way (Section 3.7): demoted cores are never promoted back.
	{"adaptive-oneway", sim.ProtocolAdaptive, 0, func(c *sim.Config) { c.Protocol.OneWay = true }, sim.Faults{DropInvalidations: true}},
	{"mesi", sim.ProtocolMESI, 0, nil, sim.Faults{DropInvalidations: true}},
	{"dragon", sim.ProtocolDragon, 0, nil, sim.Faults{DropUpdates: true}},
	{"dls", sim.ProtocolDLS, 0, nil, sim.Faults{DropWordWrites: true}},
	{"neat", sim.ProtocolNeat, 0, nil, sim.Faults{DropInvalidations: true}},
	{"hybrid", sim.ProtocolHybrid, 0, nil, sim.Faults{DropUpdates: true}},
}

func main() {
	fs := flag.NewFlagSet("lacc-check", flag.ExitOnError)
	protocol := fs.String("protocol", "all", "protocol to check: adaptive, adaptive-ackwise1, adaptive-k1, adaptive-oneway, mesi, dragon, dls, neat, hybrid, or all")
	cores := fs.Int("cores", 2, "cores in the model (state space grows steeply; 2-3 is exhaustive territory)")
	depth := fs.Int("depth", 12, "maximum interleaving length")
	maxStates := fs.Int("max-states", 1<<18, "visited-state bound")
	selfTest := fs.Bool("self-test", false, "seed a known defect per protocol and require a counterexample")
	out := fs.String("o", "", "write the first counterexample trace to this file")
	fs.Parse(os.Args[1:])

	var selected []variant
	for _, v := range variants {
		if *protocol == "all" || *protocol == v.name {
			selected = append(selected, v)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(os.Stderr, "lacc-check: unknown protocol %q\n", *protocol)
		os.Exit(2)
	}

	failed := false
	for _, v := range selected {
		opts := check.Options{
			Config:    check.Bound(v.kind, *cores, v.ackwise),
			MaxDepth:  *depth,
			MaxStates: *maxStates,
		}
		if v.tweak != nil {
			v.tweak(&opts.Config)
		}
		if *selfTest {
			opts.Faults = v.selfFault
		}
		start := time.Now()
		rep, err := check.Run(opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "lacc-check: %s: %v\n", v.name, err)
			os.Exit(1)
		}
		status := "exhausted"
		if rep.Truncated {
			status = "bounded"
		}
		fmt.Printf("%-18s %d cores  %6d states  %6d transitions  depth %2d  %s  %v\n",
			v.name, *cores, rep.States, rep.Transitions, rep.Depth, status,
			time.Since(start).Round(time.Millisecond))

		if *selfTest {
			if !reportSelfTest(v, opts, rep) {
				failed = true
			}
		} else if rep.Violation != nil {
			reportViolation(v, rep.Violation)
			failed = true
		}
		if rep.Violation != nil && *out != "" {
			if err := writeTrace(*out, rep.Violation.Trace); err != nil {
				fmt.Fprintf(os.Stderr, "lacc-check: %v\n", err)
				os.Exit(1)
			}
			fmt.Printf("  counterexample trace written to %s\n", *out)
			*out = "" // first violation only
		}
	}
	if failed {
		os.Exit(1)
	}
}

// reportSelfTest verifies the seeded-defect closed loop and returns
// whether it held.
func reportSelfTest(v variant, opts check.Options, rep *check.Report) bool {
	viol := rep.Violation
	if viol == nil {
		fmt.Printf("  SELF-TEST FAILED: seeded fault %+v found no violation\n", opts.Faults)
		return false
	}
	if viol.ReplayFailure == "" {
		fmt.Printf("  SELF-TEST FAILED: counterexample replayed clean under the fault\n")
		return false
	}
	if clean := check.Replay(opts.Config, sim.Faults{}, viol.Trace); clean != "" {
		fmt.Printf("  SELF-TEST FAILED: counterexample fails on a healthy simulator: %s\n", clean)
		return false
	}
	fmt.Printf("  self-test ok: %s violation in %d steps, replay fails under fault, clean when healthy\n",
		viol.Kind, len(viol.Path))
	return true
}

func reportViolation(v variant, viol *check.Violation) {
	fmt.Printf("  VIOLATION (%s): %s\n", viol.Kind, viol.Detail)
	fmt.Printf("  interleaving:")
	for _, a := range viol.Path {
		fmt.Printf("  %v", a)
	}
	fmt.Println()
	if viol.ReplayFailure != "" {
		fmt.Printf("  trace replay fails: %s\n", viol.ReplayFailure)
	} else {
		fmt.Printf("  trace replay unexpectedly clean (timing-dependent violation?)\n")
	}
}

func writeTrace(path string, streams [][]mem.Access) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return trace.WriteFile(f, streams)
}
