package main

import (
	"context"
	"encoding/json"
	"flag"
	"os"
	"reflect"
	"testing"
)

var update = flag.Bool("update", false, "rewrite expected_seed0.json from the DP engine")

// TestExpectedSeed0 recomputes the committed seed-0 costs with the DP engine.
func TestExpectedSeed0(t *testing.T) {
	want := map[string]map[string]int{}
	for _, spec := range []*libSpec{exactSpec, subsetsSpec} {
		ref, err := dpCosts(context.Background(), spec.methods[0], spec.inputs(0), spec.arch())
		if err != nil {
			t.Fatal(err)
		}
		want[spec.name] = ref
	}
	if *update {
		data, err := json.MarshalIndent(want, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("expected_seed0.json", append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	got, err := expectedSeed0()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("expected_seed0.json disagrees with the DP engine (rerun with -update after checking why):\ngot  %v\nwant %v", got, want)
	}
}

// TestExpectedSeed0MatchesBenchSnapshots checks the committed costs against
// the rows the repository's BENCH_*.json perf snapshots record on QX4.
func TestExpectedSeed0MatchesBenchSnapshots(t *testing.T) {
	exp, err := expectedSeed0()
	if err != nil {
		t.Fatal(err)
	}
	for _, file := range []string{"../BENCH_6.json", "../BENCH_7.json", "../BENCH_8.json"} {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		var snap struct {
			Arch       string `json:"arch"`
			Benchmarks []struct {
				Name string `json:"name"`
				Cost int    `json:"cost"`
			} `json:"benchmarks"`
		}
		if err := json.Unmarshal(data, &snap); err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		if snap.Arch != "ibmqx4" {
			t.Fatalf("%s: arch %s, want ibmqx4", file, snap.Arch)
		}
		shared := 0
		for _, b := range snap.Benchmarks {
			cost, ok := exp["exact-sat-qx4"][b.Name+"#0"]
			if !ok {
				continue
			}
			shared++
			if cost != b.Cost {
				t.Errorf("%s: %s costs %d, expected_seed0.json has %d", file, b.Name, b.Cost, cost)
			}
		}
		if shared != 5 {
			t.Errorf("%s: %d rows shared with exact-sat-qx4, want 5", file, shared)
		}
	}
}
