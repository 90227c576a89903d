package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math"
	"math/rand"
	"testing"

	"lacc/internal/mem"
	"lacc/internal/trace"
	"lacc/internal/workloads"
)

// TestResultPins pins whole simulation results: each case runs one
// configuration and compares the SHA-256 of the encoding/json encoding of
// its Result against a recorded value. The cases cover the corners the
// benchmark digests never reach — victim replication, timestamp-gated
// promotion, L2 back-invalidation of lines that sharers still hold (home
// slices far smaller than the L1s they include), Dragon's and hybrid's
// sole-sharer promotion, Neat's synchronization-point self-invalidation,
// the float instruction-fetch path (a FetchPerOp off the 1/8 grid), and
// clocks past 2^48 cycles, beyond what a run-queue key packed without
// a base could hold — so a change in event order, counters or timing on
// those paths shows up here. The table is a record, not a tunable: a
// digest changes only with a deliberate, result-changing model fix.
func TestResultPins(t *testing.T) {
	// mesh16 is a 16-core 4x4 machine with Table 1 caches.
	mesh16 := func(kind ProtocolKind, tweak func(*Config)) Config {
		cfg := Default()
		cfg.Cores, cfg.MeshWidth, cfg.MemControllers = 16, 4, 4
		cfg.ProtocolKind = kind
		if tweak != nil {
			tweak(&cfg)
		}
		return cfg
	}
	// tiny is the differential suite's 4-core machine, whose 1 KB L1s,
	// 4 KB L2 slices and ACKwise-2 directory reach every protocol path.
	tiny := func(kind ProtocolKind, tweak func(*Config)) Config {
		cfg := diffConfig()
		cfg.ProtocolKind = kind
		if tweak != nil {
			tweak(&cfg)
		}
		return cfg
	}
	// smallL2 shrinks each home slice to 64 lines, far below the 32 KB L1s
	// it includes, so home fills displace lines with live private copies.
	smallL2 := func(c *Config) { c.L2SizeKB = 4 }
	workload := func(name string) func(int) []trace.Stream {
		return func(cores int) []trace.Stream {
			return workloads.MustByName(name).Streams(workloads.Spec{Cores: cores, Scale: 0.25, Seed: 3})
		}
	}
	program := func(build func(*rand.Rand, int) [][]mem.Access, seed int64) func(int) []trace.Stream {
		return func(cores int) []trace.Stream {
			return trace.FromSlices(build(rand.New(rand.NewSource(seed)), cores))
		}
	}
	random := program(buildRandomProgram, 11)

	cases := []struct {
		name    string
		cfg     Config
		streams func(cores int) []trace.Stream
		want    string
	}{
		{"adaptive/victim-replication", mesh16(ProtocolAdaptive, func(c *Config) {
			c.VictimReplication = true
			c.L1DSizeKB = 4
		}), workload("canneal"), "577c5ad1b03226f4beaa25a40bff6d9cc0dc4a6bfec9d2799f591ab0d209400a"},
		{"adaptive/victim-replication-small-l2", mesh16(ProtocolAdaptive, func(c *Config) {
			c.VictimReplication = true
			c.L1DSizeKB = 4
			c.L2SizeKB = 4
		}), workload("fluidanimate"), "8d11df38f97e4126a5113b799c52b7130f589a705585c7e17294006856ac5ed6"},
		{"adaptive/victim-replication-tiny", tiny(ProtocolAdaptive, func(c *Config) {
			c.VictimReplication = true
		}), random, "6b34194f509ebb6001a87a3a3d77497b7b86b6faf0019e77ff726e31bfb14270"},
		{"adaptive/timestamp", mesh16(ProtocolAdaptive, func(c *Config) {
			c.Protocol.UseTimestamp = true
			c.L1DSizeKB = 4
		}), workload("barnes"), "40428b2965d7e12db7112ec940bdcf09e52d21a88c303d1876c6cea60097c095"},
		{"adaptive/timestamp-tiny", tiny(ProtocolAdaptive, func(c *Config) {
			c.Protocol.UseTimestamp = true
		}), random, "1852dd514f9112970e6b7a98b73a3c61dbda39b84cb5c08c4e6f0696e8b5dae3"},

		{"adaptive/small-l2-fluidanimate", mesh16(ProtocolAdaptive, smallL2), workload("fluidanimate"), "eedf47e57861da12fb973bf8b9d7c5b1f1f32da81ee0738db67d43f01d37fba5"},
		{"adaptive/small-l2-barnes", mesh16(ProtocolAdaptive, smallL2), workload("barnes"), "0a2d964dd2491bc052be2eedea7a4e2c4a4273f3387706655d51d8474dbfe344"},
		{"adaptive/tiny", tiny(ProtocolAdaptive, nil), random, "8dd662196f8865c4e976bc54e6faec0c9ad6e0d28ad8e19ba23a69050e0ab77c"},
		{"mesi/small-l2-fluidanimate", mesh16(ProtocolMESI, smallL2), workload("fluidanimate"), "2db41e60ea4547b5383211e913d74cfcebfc8abca6ea8ffa640bc49d38563460"},
		{"mesi/small-l2-barnes", mesh16(ProtocolMESI, smallL2), workload("barnes"), "77742f25ceb066cf6d4d0e918742f72762a60faf51740f56700e8fbc71ee7e93"},
		{"mesi/tiny", tiny(ProtocolMESI, nil), random, "b7b3cc734e8b4199407365f15c359ff11cc0cbf81ae0cd9cdc8cdac5a7946f70"},
		{"dragon/small-l2-fluidanimate", mesh16(ProtocolDragon, smallL2), workload("fluidanimate"), "d83abd63abe4e4f115cdc089119f3dc358c1d3d8b2003d24a266661df5954e6c"},
		{"dragon/small-l2-barnes", mesh16(ProtocolDragon, smallL2), workload("barnes"), "5246ad55189d68ec9bfabede88085847b8826a4d2e43fa3ac24afa34607da599"},
		{"dragon/tiny", tiny(ProtocolDragon, nil), random, "cf846b3ff8d6021d2b7878d084f6ba7123494f13f3f86dbd20d87b4cddc8d68f"},
		{"dls/small-l2-fluidanimate", mesh16(ProtocolDLS, smallL2), workload("fluidanimate"), "322d9700951fd78eb516493059db986f6746a8e85ee768ca55e39d13a5c51375"},
		{"dls/small-l2-barnes", mesh16(ProtocolDLS, smallL2), workload("barnes"), "3ae425551e4ac4003b09ebccf136bd0933b4f0e9e1b77993a9ceb160855608ed"},
		{"dls/tiny", tiny(ProtocolDLS, nil), random, "8b2cfa693256e3dde4603fab9fa6db4d07bb2448313ad241b82bd5bb73c888a1"},
		{"neat/small-l2-fluidanimate", mesh16(ProtocolNeat, smallL2), workload("fluidanimate"), "8c4779659b963703848ad2106eb183efa2c272c71076aae108185d430455049f"},
		{"neat/small-l2-barnes", mesh16(ProtocolNeat, smallL2), workload("barnes"), "f9cb441bf8eb7bf28a857fc13f76ca9eb54832394b1fba11b96b0be899d3f52f"},
		{"neat/tiny", tiny(ProtocolNeat, nil), random, "dfe62c35585bbb4a3ea64c2bf79e589feb6b1125f643aa493f49c27af2515f36"},
		{"hybrid/small-l2-fluidanimate", mesh16(ProtocolHybrid, smallL2), workload("fluidanimate"), "e62fa67d40663a8118207d55c6e28c37b871b81763f4128122b764c5b8c9709c"},
		{"hybrid/small-l2-barnes", mesh16(ProtocolHybrid, smallL2), workload("barnes"), "5dc4e2b8139288fd68152037ad2ff39fe5f23ff4ce4fcd0d1d507dc008321dcb"},
		{"hybrid/tiny", tiny(ProtocolHybrid, nil), random, "42c00ec8322efdfdee1d2aac5aca74ea56d1f5c002b72167685ab7860e48950c"},

		{"neat/lock-heavy", mesh16(ProtocolNeat, nil), program(buildLockHeavyProgram, 5), "84967a2f202229bb2522bb3e03d80e73e9f62fdcd4b6470de0e13bd22ec9b136"},
		{"neat/barrier-heavy", mesh16(ProtocolNeat, smallL2), program(buildBarrierHeavyProgram, 6), "24b9e36c7a9fc2ae006b79bb50505d92c5cf6ef1f26d088ee00b4787c39a48e1"},
		{"neat/barnes", mesh16(ProtocolNeat, nil), workload("barnes"), "a7b9bf1a24ff7bc98f6d6368d564a512f0da3c4f0bb4fe07936d773c7202a768"},

		{"adaptive/fetch-float-tiny", tiny(ProtocolAdaptive, func(c *Config) {
			c.FetchPerOp = 1.3
		}), random, "e9d16672f8aa6074796c6873ffd4d102b102b5b147a55d50bbdd7929899ca31b"},

		{"adaptive/far-clocks-tiny", tiny(ProtocolAdaptive, nil), program(buildFarClockProgram, 7), "96b379b11c69056cc6eb4fd46ff120def14c648830445ebac6acb98536f42aae"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, err := New(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			res, err := s.Run(tc.streams(tc.cfg.Cores))
			if err != nil {
				t.Fatal(err)
			}
			enc, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(enc)
			if got := hex.EncodeToString(sum[:]); got != tc.want {
				t.Errorf("result digest %s, want %s", got, tc.want)
			}
		})
	}
}

// buildFarClockProgram emits about 70k data accesses per core with compute
// gaps just below math.MaxUint32, so every core's clock passes 2^48 cycles
// partway through the run, plus critical sections and barriers so that
// lock grants and barrier releases also re-queue cores at clocks that
// large. The run queue packs clocks relative to a base; this program makes
// that base move.
func buildFarClockProgram(rng *rand.Rand, cores int) [][]mem.Access {
	const (
		rounds      = 7
		opsPerRound = 10000
	)
	dataBase := mem.Addr(1) << 22
	progs := make([][]mem.Access, cores)
	for r := 0; r < rounds; r++ {
		for c := 0; c < cores; c++ {
			for i := 0; i < opsPerRound; i++ {
				kind := mem.Read
				if rng.Intn(4) == 0 {
					kind = mem.Write
				}
				// Mostly the core's own 512 B (L1-resident) region, sometimes
				// a shared one, so misses and coherence traffic stay rare
				// and the run is dominated by the engine's queue.
				page := c + 1
				if rng.Intn(16) == 0 {
					page = 0
				}
				a := mem.Access{
					Kind: kind,
					Addr: dataBase + mem.Addr(page)*mem.PageBytes + mem.Addr(rng.Intn(64))*mem.WordBytes,
					Gap:  math.MaxUint32 - uint32(rng.Intn(1<<10)),
				}
				if rng.Intn(50) == 0 {
					id := mem.Addr(1 + rng.Intn(2))
					progs[c] = append(progs[c],
						mem.Access{Kind: mem.Lock, Addr: id},
						a,
						mem.Access{Kind: mem.Unlock, Addr: id})
					continue
				}
				progs[c] = append(progs[c], a)
			}
			progs[c] = append(progs[c], mem.Access{Kind: mem.Barrier, Addr: mem.Addr(6000 + r)})
		}
	}
	return progs
}
