package main

import (
	"context"
	"encoding/json"
	"os"
	"testing"

	qxmap "repro"
	"repro/internal/revlib"
)

// TestBenchmarkJSONMatchesMetrics checks that BENCHMARK.json declares the
// metrics this program reports, with the same units and directions, and
// only workloads it knows.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json names unknown workload %s", w.Name)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range b.EndToEnd {
		if d := endToEnd[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %+v, program %+v", i, m, d)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		if d := perLayer[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per-layer metric %d: BENCHMARK.json %+v, program %+v", i, m, d)
		}
	}
}

func TestNaiveCostBoundsTheOptimum(t *testing.T) {
	m, err := qxmap.NewMapper()
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	a := qxmap.QX4()
	for _, b := range revlib.Suite()[:8] {
		naive, err := naiveCost(b.Circuit, a)
		if err != nil {
			t.Fatal(err)
		}
		o := m.Options()
		o.Engine = qxmap.EngineDP
		res, err := m.MapWith(context.Background(), b.Circuit, a, o)
		if err != nil {
			t.Fatal(err)
		}
		if naive < res.Cost {
			t.Errorf("%s: naive cost %d below the optimum %d", b.Name, naive, res.Cost)
		}
	}
	empty := qxmap.NewCircuit(3)
	if c, err := naiveCost(empty, a); err != nil || c != 0 {
		t.Errorf("circuit without CNOTs: naive cost %d, %v", c, err)
	}
}
