package lacc_test

import (
	"testing"

	"lacc"
)

// TestGoldenRegression pins exact simulation outcomes for fixed seeds and
// configurations. The simulator is fully deterministic, so any drift in
// these numbers means a protocol, timing or workload change — which is
// fine when intentional (regenerate the table below by running the listed
// configuration), and a caught bug when not.
//
// The table covers all four benchmark families (SPLASH-2, PARSEC, Parallel
// MI Bench, UHPC) under the adaptive protocol, plus one row per family
// under each baseline (MESI, Dragon, DLS, Neat and the MESI/Dragon
// hybrid) so protocol drift is caught exactly like timing drift. The
// "activity" column is the protocol's signature event count: remote word
// accesses for adaptive and DLS, sharer word updates for Dragon and the
// hybrid, zero for MESI and Neat (whole-line transfers only).
func TestGoldenRegression(t *testing.T) {
	golden := []struct {
		workload   string
		protocol   lacc.ProtocolKind
		completion lacc.Cycle
		accesses   uint64
		activity   uint64
		linkFlits  uint64
	}{
		// Locality-aware adaptive protocol (the paper's), PCT 4, Limited-3.
		{"streamcluster", lacc.ProtocolAdaptive, 57920, 12512, 3677, 76548},
		{"matmul", lacc.ProtocolAdaptive, 929756, 350016, 31894, 956601},
		{"canneal", lacc.ProtocolAdaptive, 609206, 20540, 1106, 634342},
		{"radix", lacc.ProtocolAdaptive, 97899, 32764, 2020, 186044},
		{"lu-nc", lacc.ProtocolAdaptive, 60744, 30464, 0, 44906},
		{"blackscholes", lacc.ProtocolAdaptive, 283271, 39324, 341, 332317},
		{"dijkstra-ss", lacc.ProtocolAdaptive, 112328, 35600, 10775, 173792},
		{"susan", lacc.ProtocolAdaptive, 59350, 96240, 0, 61142},
		{"concomp", lacc.ProtocolAdaptive, 139809, 15324, 11479, 217882},
		{"community", lacc.ProtocolAdaptive, 98649, 66534, 7240, 212212},

		// Full-map MESI directory baseline.
		{"streamcluster", lacc.ProtocolMESI, 89605, 12512, 0, 175660},
		{"matmul", lacc.ProtocolMESI, 1148401, 350016, 0, 1992720},
		{"canneal", lacc.ProtocolMESI, 614449, 20540, 0, 649714},

		// Dragon write-update baseline.
		{"streamcluster", lacc.ProtocolDragon, 91441, 12512, 15035, 167586},
		{"matmul", lacc.ProtocolDragon, 1149359, 350016, 18, 1993145},
		{"canneal", lacc.ProtocolDragon, 618705, 20540, 753, 646420},

		// Directoryless shared-LLC baseline: every access is a remote word
		// access, so activity equals the access count.
		{"streamcluster", lacc.ProtocolDLS, 72431, 12512, 12512, 89305},
		{"matmul", lacc.ProtocolDLS, 997965, 350016, 350016, 1141221},
		{"canneal", lacc.ProtocolDLS, 521014, 20540, 20540, 359766},

		// Neat single-pointer self-invalidation baseline: whole-line
		// transfers only, so activity is zero like MESI.
		{"streamcluster", lacc.ProtocolNeat, 94470, 12512, 0, 183538},
		{"matmul", lacc.ProtocolNeat, 1148716, 350016, 0, 1995097},
		{"canneal", lacc.ProtocolNeat, 619952, 20540, 0, 670772},

		// Per-line MESI/Dragon hybrid: activity counts its update pushes.
		{"streamcluster", lacc.ProtocolHybrid, 99903, 12512, 268, 184923},
		{"matmul", lacc.ProtocolHybrid, 1150199, 350016, 4, 1993702},
		{"canneal", lacc.ProtocolHybrid, 616145, 20540, 676, 646271},
	}
	// goldenRow is the comparable shape of one table row. Comparing whole
	// rows (not field by field) makes a regression print the complete
	// got/want row, so a CI log alone is enough to see every drifted field
	// and to regenerate the table entry.
	type goldenRow struct {
		Protocol   string
		Completion lacc.Cycle
		Accesses   uint64
		Activity   uint64
		LinkFlits  uint64
	}
	for _, g := range golden {
		g := g
		t.Run(g.workload+"/"+string(g.protocol), func(t *testing.T) {
			t.Parallel()
			cfg := lacc.DefaultConfig()
			cfg.Cores = 16
			cfg.MeshWidth = 4
			cfg.MemControllers = 2
			cfg.ProtocolKind = g.protocol
			res, err := lacc.RunWorkload(cfg, g.workload, 0.1, 7)
			if err != nil {
				t.Fatal(err)
			}
			got := goldenRow{
				Protocol:   res.Protocol,
				Completion: res.CompletionCycles,
				Accesses:   res.DataAccesses,
				Activity:   res.WordReads + res.WordWrites + res.UpdateWrites,
				LinkFlits:  res.LinkFlits,
			}
			want := goldenRow{
				Protocol:   string(g.protocol),
				Completion: g.completion,
				Accesses:   g.accesses,
				Activity:   g.activity,
				LinkFlits:  g.linkFlits,
			}
			if got != want {
				t.Errorf("golden row drifted for %s/%s:\n got: %+v\nwant: %+v",
					g.workload, g.protocol, got, want)
			}
		})
	}
}

// TestGoldenLargeMesh256 pins the tracked large-mesh scenario — the
// LargeMesh256 benchmark's machine: streamcluster at 256 cores on a 16x16
// mesh, four times the paper's core count — under the adaptive protocol
// and the full-map MESI baseline. Broadcast trees, run-queue depth and
// sharer vectors all scale with the mesh, so drift here can appear even
// when the 16-core rows above hold.
func TestGoldenLargeMesh256(t *testing.T) {
	golden := []struct {
		protocol   lacc.ProtocolKind
		completion lacc.Cycle
		accesses   uint64
		activity   uint64
		linkFlits  uint64
	}{
		{lacc.ProtocolAdaptive, 727493, 199712, 59917, 4746419},
		{lacc.ProtocolMESI, 1528735, 199712, 0, 12337408},
		{lacc.ProtocolHybrid, 1999181, 199712, 6011, 13079074},
	}
	for _, g := range golden {
		g := g
		t.Run(string(g.protocol), func(t *testing.T) {
			t.Parallel()
			cfg := lacc.DefaultConfig()
			cfg.Cores = 256
			cfg.MeshWidth = 16
			cfg.ProtocolKind = g.protocol
			runLargeMeshGolden(t, cfg, g.completion, g.accesses, g.activity, g.linkFlits)
		})
	}
}

// TestGoldenLargeMesh1024 pins a 1024-core 32x32 machine — sixteen times
// the paper's core count.
func TestGoldenLargeMesh1024(t *testing.T) {
	if testing.Short() {
		t.Skip("1024-core simulation is slow; skipped with -short")
	}
	golden := []struct {
		protocol   lacc.ProtocolKind
		completion lacc.Cycle
		accesses   uint64
		activity   uint64
		linkFlits  uint64
	}{
		{lacc.ProtocolAdaptive, 3042794, 798752, 244164, 37327169},
		{lacc.ProtocolMESI, 6814354, 798752, 0, 98979588},
	}
	for _, g := range golden {
		g := g
		t.Run(string(g.protocol), func(t *testing.T) {
			t.Parallel()
			cfg := lacc.DefaultConfig()
			cfg.Cores = 1024
			cfg.MeshWidth = 32
			cfg.ProtocolKind = g.protocol
			runLargeMeshGolden(t, cfg, g.completion, g.accesses, g.activity, g.linkFlits)
		})
	}
}

// runLargeMeshGolden runs streamcluster at scale 0.1, seed 7 under cfg and
// compares the signature counters against the pinned row.
func runLargeMeshGolden(t *testing.T, cfg lacc.Config, completion lacc.Cycle, accesses, activity, linkFlits uint64) {
	t.Helper()
	res, err := lacc.RunWorkload(cfg, "streamcluster", 0.1, 7)
	if err != nil {
		t.Fatal(err)
	}
	if res.CompletionCycles != completion || res.DataAccesses != accesses ||
		res.WordReads+res.WordWrites+res.UpdateWrites != activity ||
		res.LinkFlits != linkFlits {
		t.Errorf("large-mesh golden row drifted for %s:\n got: completion=%d accesses=%d activity=%d linkFlits=%d\nwant: completion=%d accesses=%d activity=%d linkFlits=%d",
			res.Protocol, res.CompletionCycles, res.DataAccesses,
			res.WordReads+res.WordWrites+res.UpdateWrites, res.LinkFlits,
			completion, accesses, activity, linkFlits)
	}
}
