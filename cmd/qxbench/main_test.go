package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	qxmap "repro"
)

func writeSnapshot(t *testing.T, snap batchSnapshot) string {
	t.Helper()
	b, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "baseline.json")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func oneRow(threads int, conflicts int64) batchSnapshot {
	return batchSnapshot{Benchmarks: []snapshotRow{{
		Name:    "3_17_13",
		Cost:    12,
		Minimal: true,
		Stats:   qxmap.StatsJSON{SolveCounters: qxmap.SolveCounters{SATEncodes: 1, BoundProbes: 5, SATThreads: threads, SATConflicts: conflicts}},
	}}}
}

// TestCompareBaselineGatesSingleThreadConflicts: one SAT thread searches
// deterministically, so a row that spends more conflicts than its baseline
// fails the gate; fewer or equal conflicts pass, and a portfolio row (whose
// conflict count depends on scheduling) is not gated on conflicts.
func TestCompareBaselineGatesSingleThreadConflicts(t *testing.T) {
	base := writeSnapshot(t, oneRow(1, 4223))
	for _, tc := range []struct {
		run     batchSnapshot
		wantErr bool
	}{
		{oneRow(1, 4223), false},
		{oneRow(1, 4000), false},
		{oneRow(1, 4224), true},
		{oneRow(4, 9000), false},
	} {
		err := compareBaseline(tc.run, base)
		if gotErr := err != nil; gotErr != tc.wantErr {
			t.Errorf("threads=%d conflicts=%d: err = %v, want error %v",
				tc.run.Benchmarks[0].Stats.SATThreads, tc.run.Benchmarks[0].Stats.SATConflicts, err, tc.wantErr)
		}
		if err != nil && !strings.Contains(err.Error(), "SAT conflicts") {
			t.Errorf("unexpected gate failure: %v", err)
		}
	}
	// A portfolio baseline gates no conflicts either.
	if err := compareBaseline(oneRow(1, 9000), writeSnapshot(t, oneRow(4, 4223))); err != nil {
		t.Errorf("portfolio baseline gated conflicts: %v", err)
	}
}
