package sim

import (
	"reflect"
	"testing"

	"lacc/internal/workloads"
)

// TestFixedPointFetchMatchesFloat is the differential test of the two
// instruction-fetch formulations at a shipped FetchPerOp: for every
// protocol kind, a barnes run through the fixed-point walk (the simulator
// as built) must produce exactly the Result of the same run forced onto
// the float walk. TestResultPins' fetch-float-tiny case pins the float
// walk alone, off the 1/8 grid, where the fixed-point walk cannot run.
func TestFixedPointFetchMatchesFloat(t *testing.T) {
	for _, kind := range ProtocolKinds() {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			t.Parallel()
			cfg := Default()
			cfg.Cores, cfg.MeshWidth, cfg.MemControllers = 16, 4, 4
			cfg.ProtocolKind = kind
			run := func(float bool) *Result {
				s, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if s.fetch8 < 0 {
					t.Fatalf("FetchPerOp %v does not select the fixed-point walk", cfg.FetchPerOp)
				}
				if float {
					s.fetch8 = -1
				}
				w := workloads.MustByName("barnes")
				res, err := s.Run(w.Streams(workloads.Spec{Cores: cfg.Cores, Scale: 0.25, Seed: 3}))
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			if fixed, float := run(false), run(true); !reflect.DeepEqual(fixed, float) {
				t.Errorf("fixed-point and float fetch walks diverged:\n fixed: %+v\n float: %+v", fixed, float)
			}
		})
	}
}
