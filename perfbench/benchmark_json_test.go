package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json at the repository
// root in step with the metric tables the benchmark prints from.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the table %d", len(bj.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		got := bj.EndToEnd[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better || got.Bound != d.Bound {
			t.Errorf("end_to_end[%d] = %+v, table has %+v", i, got, d)
		}
	}
	if len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the table %d", len(bj.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		got := bj.PerLayer[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better {
			t.Errorf("per_layer[%d] = %+v, table has %+v", i, got, d)
		}
	}
	for _, w := range bj.Workloads {
		if _, err := workloadFor(w.Name, 1, t.TempDir()); err != nil {
			t.Errorf("workload %s: %v", w.Name, err)
		}
	}
}

func TestResultLineRejectsMissingAndExtraMetrics(t *testing.T) {
	defs := []metricDef{{Name: "a", Unit: "s"}, {Name: "b", Unit: "ms"}}
	if _, err := resultLine(defs, map[string]float64{"a": 1}, 1, 0, true); err == nil {
		t.Error("a missing metric must be an error")
	}
	if _, err := resultLine(defs, map[string]float64{"a": 1, "b": 2, "c": 3}, 1, 0, true); err == nil {
		t.Error("an undeclared metric must be an error")
	}
	b, err := resultLine(defs, map[string]float64{"a": 1, "b": 2}, 3, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	var r result
	if err := json.Unmarshal(b, &r); err != nil {
		t.Fatal(err)
	}
	if r.Correct || r.Attempted != 3 || r.Failed != 1 || r.Metrics["b"] != (metricValue{2, "ms"}) {
		t.Errorf("result line %s", b)
	}
}
