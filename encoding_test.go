package qxmap

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// goldenResult builds a fully-populated Result with fixed values so its
// wire encoding is byte-for-byte reproducible.
func goldenResult() *Result {
	mapped := NewCircuit(2)
	mapped.AddH(1)
	mapped.AddCNOT(1, 0)
	mapped.SetName("golden")
	return &Result{
		Mapped:             mapped,
		Cost:               11,
		Swaps:              1,
		Switches:           1,
		InitialLayout:      Mapping{1, 0},
		FinalLayout:        Mapping{0, 1},
		PermPoints:         2,
		Minimal:            true,
		GatesOptimizedAway: 3,
		CacheHit:           true,
		Stats: Stats{
			SkeletonTime:    10 * time.Microsecond,
			SolveTime:       2 * time.Millisecond,
			MaterializeTime: 20 * time.Microsecond,
			VerifyTime:      300 * time.Microsecond,
			OptimizeTime:    40 * time.Microsecond,
			Solver:          "exact",
			Engine:          "sat",
			CacheHit:        true,
			SolveCounters: SolveCounters{
				SATSolves:             4,
				SATEncodes:            1,
				SATConflicts:          123,
				BoundProbes:           3,
				BoundJumps:            1,
				LowerBound:            7,
				SubsetsPruned:         2,
				CoreFamilyRefutations: 1,
				OrbitHits:             5,
			},
		},
		Method:  MethodExact,
		Engine:  EngineSAT,
		Runtime: 3 * time.Millisecond,
	}
}

// checkGolden compares got against the named golden file (testdata/),
// rewriting it under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden file (run `go test -run Golden -update .` to create): %v", err)
	}
	if string(got) != string(want) {
		t.Errorf("wire encoding drifted from %s:\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}

// TestResultJSONGolden pins the stable wire encoding of Result and Stats:
// any field addition, rename or type change must be deliberate (reflected
// by updating the golden file), because cmd/qxmap -json and the qxmapd
// service both emit exactly this shape.
func TestResultJSONGolden(t *testing.T) {
	j, err := goldenResult().JSON(true)
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.MarshalIndent(j, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "result.golden.json", append(got, '\n'))
}

// TestBatchReportJSONGolden pins the batch report encoding, including the
// fail-soft error shape and the aggregate counters.
func TestBatchReportJSONGolden(t *testing.T) {
	res := goldenResult()
	report, err := BatchReport([]BatchResult{
		{Index: 0, Job: Job{Name: "ok"}, Result: res},
		{Index: 1, Job: Job{Name: "boom"}, Err: os.ErrDeadlineExceeded},
	}, false)
	if err != nil {
		t.Fatal(err)
	}
	if report.Succeeded != 1 || report.Failed != 1 || report.TotalCost != res.Cost {
		t.Fatalf("aggregates = %+v", report)
	}
	got, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "batch.golden.json", append(got, '\n'))
}

// TestResultJSONWithoutQASM: the qasm field is omitted when not requested.
func TestResultJSONWithoutQASM(t *testing.T) {
	j, err := goldenResult().JSON(false)
	if err != nil {
		t.Fatal(err)
	}
	if j.QASM != "" {
		t.Errorf("qasm populated without includeQASM: %q", j.QASM)
	}
	b, err := json.Marshal(j)
	if err != nil {
		t.Fatal(err)
	}
	var round map[string]any
	if err := json.Unmarshal(b, &round); err != nil {
		t.Fatal(err)
	}
	if _, present := round["qasm"]; present {
		t.Error("qasm key present in encoded JSON despite omitempty")
	}
	if round["cost"] != float64(11) {
		t.Errorf("cost = %v", round["cost"])
	}
}

// TestResultJSONFromRealMap: the encoding of a real pipeline result is
// internally consistent (cost breakdown, solver echo, layouts sized to the
// architecture).
func TestResultJSONFromRealMap(t *testing.T) {
	res, err := Map(Figure1a(), QX4(), Options{Engine: EngineDP})
	if err != nil {
		t.Fatal(err)
	}
	j, err := res.JSON(true)
	if err != nil {
		t.Fatal(err)
	}
	if j.Cost != 7*j.Swaps+4*j.Switches {
		t.Errorf("cost %d != 7·%d + 4·%d", j.Cost, j.Swaps, j.Switches)
	}
	if j.Gates == 0 || j.Depth == 0 {
		t.Errorf("gates/depth = %d/%d", j.Gates, j.Depth)
	}
	if j.QASM == "" {
		t.Error("missing qasm")
	}
	if j.Stats.Solver != "exact" || j.Stats.Engine != "dp" {
		t.Errorf("stats provenance = %s/%s", j.Stats.Solver, j.Stats.Engine)
	}
}
