package exact

import (
	"runtime"
	"testing"

	"repro/internal/arch"
	"repro/internal/circuit"
)

// TestSATThreadsParity: the clause-sharing portfolio must reproduce the
// single-thread minimal cost and minimality proof on every instance — only
// the witness (and hence the concrete ops) may differ — and the thread
// count and sharing counters must surface in the result. GOMAXPROCS is
// raised so the engine's width cap doesn't degrade the portfolio to a
// pass-through on small CI boxes.
func TestSATThreadsParity(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	a := arch.QX4()
	instances := []*circuit.Skeleton{
		circuit.Figure1b(),
		randomSkeleton(7, 5, 8),
		randomSkeleton(21, 5, 10),
	}
	for i, sk := range instances {
		single, err := Solve(bg, sk, a, Options{Engine: EngineSAT})
		if err != nil {
			t.Fatalf("instance %d single-thread: %v", i, err)
		}
		multi, err := Solve(bg, sk, a, Options{Engine: EngineSAT, SAT: SATOptions{Threads: 4}})
		if err != nil {
			t.Fatalf("instance %d 4-thread: %v", i, err)
		}
		if multi.Cost != single.Cost {
			t.Errorf("instance %d: portfolio cost %d, single-thread cost %d", i, multi.Cost, single.Cost)
		}
		if !multi.Minimal {
			t.Errorf("instance %d: portfolio lost the minimality proof", i)
		}
		if multi.SATEncodes != 1 {
			t.Errorf("instance %d: portfolio re-encoded (%d encodes)", i, multi.SATEncodes)
		}
		if single.SATThreads != 1 || multi.SATThreads != 4 {
			t.Errorf("instance %d: SATThreads = %d/%d, want 1/4", i, single.SATThreads, multi.SATThreads)
		}
		if single.SharedClauses != 0 {
			t.Errorf("instance %d: single-thread run reported %d shared clauses", i, single.SharedClauses)
		}
		// The portfolio's witness must still realize a valid solution.
		if _, err := multi.Ops(sk); err != nil {
			t.Errorf("instance %d: portfolio ops: %v", i, err)
		}
	}
}

// TestSATThreadsDefaultSingle: Threads unset (or ≤ 1) must keep the fully
// deterministic single-solver path.
func TestSATThreadsDefaultSingle(t *testing.T) {
	r1, err := Solve(bg, circuit.Figure1b(), arch.QX4(), Options{Engine: EngineSAT})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Solve(bg, circuit.Figure1b(), arch.QX4(), Options{Engine: EngineSAT, SAT: SATOptions{Threads: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Cost != r2.Cost || r1.SATConflicts != r2.SATConflicts || r1.BoundProbes != r2.BoundProbes {
		t.Errorf("threads=1 diverged from default: cost %d/%d, conflicts %d/%d, probes %d/%d",
			r1.Cost, r2.Cost, r1.SATConflicts, r2.SATConflicts, r1.BoundProbes, r2.BoundProbes)
	}
	if r1.SharedClauses != 0 || r2.SharedClauses != 0 {
		t.Errorf("single-thread runs reported clause sharing: %d, %d", r1.SharedClauses, r2.SharedClauses)
	}
}
