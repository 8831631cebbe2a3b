package exact

import (
	"runtime"
	"testing"

	"repro/internal/arch"
	"repro/internal/circuit"
	"repro/internal/revlib"
)

// table1Skeletons returns the small Table-1 benchmarks the perf snapshots
// (BENCH_6/BENCH_7) run, as skeletons.
func table1Skeletons(t *testing.T) map[string]*circuit.Skeleton {
	t.Helper()
	names := []string{"3_17_13", "ex-1_166", "ham3_102", "miller_11", "4gt11_84"}
	out := make(map[string]*circuit.Skeleton, len(names))
	for _, b := range revlib.Suite() {
		for _, n := range names {
			if b.Name == n {
				sk, err := circuit.ExtractSkeleton(b.Circuit)
				if err != nil {
					t.Fatalf("%s: %v", n, err)
				}
				out[n] = sk
			}
		}
	}
	if len(out) != len(names) {
		t.Fatalf("found %d of %d benchmarks", len(out), len(names))
	}
	return out
}

// TestSharedSubsetsDifferentialTable1 is the differential gate for the
// shared-instance §4.1 fan-out: on every small Table-1 benchmark and every
// permutation strategy, the shared SAT path must reproduce the per-subset
// DP fan-out's cost, yield a valid op stream, keep its minimality proof,
// and encode exactly once.
func TestSharedSubsetsDifferentialTable1(t *testing.T) {
	a := arch.QX4()
	sks := table1Skeletons(t)
	for name, sk := range sks {
		for _, strat := range []Strategy{StrategyAll, StrategyDisjoint, StrategyOdd, StrategyTriangle} {
			dp, errD := Solve(bg, sk, a, Options{Engine: EngineDP, Strategy: strat, UseSubsets: true})
			st, errS := Solve(bg, sk, a, Options{Engine: EngineSAT, Strategy: strat, UseSubsets: true})
			if (errD == nil) != (errS == nil) {
				t.Fatalf("%s/%v: DP err=%v, SAT err=%v", name, strat, errD, errS)
			}
			if errD != nil {
				continue // both engines agree the restricted instance has no mapping
			}
			if dp.Cost != st.Cost {
				t.Fatalf("%s/%v: DP cost %d, shared SAT cost %d", name, strat, dp.Cost, st.Cost)
			}
			if !st.Minimal {
				t.Errorf("%s/%v: shared SAT run lost the minimality proof", name, strat)
			}
			if st.SATEncodes != 1 {
				t.Errorf("%s/%v: shared fan-out encoded %d times, want 1", name, strat, st.SATEncodes)
			}
			if st.SubsetBack == nil {
				t.Errorf("%s/%v: shared result should carry the subset back-mapping", name, strat)
			}
			applyOps(t, sk, a, st)
		}
	}
}

// TestSharedSubsetsParallelParity: Parallel on the shared instance means
// bound-probe parallelism — same single encode, same cost, valid ops.
func TestSharedSubsetsParallelParity(t *testing.T) {
	a := arch.QX4()
	for name, sk := range table1Skeletons(t) {
		seq, err := Solve(bg, sk, a, Options{Engine: EngineSAT, UseSubsets: true})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		par, err := Solve(bg, sk, a, Options{Engine: EngineSAT, UseSubsets: true, Parallel: true})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if seq.Cost != par.Cost {
			t.Fatalf("%s: sequential %d vs parallel %d", name, seq.Cost, par.Cost)
		}
		if par.SATEncodes != 1 {
			t.Errorf("%s: parallel shared fan-out encoded %d times, want 1", name, par.SATEncodes)
		}
		if !par.Minimal {
			t.Errorf("%s: parallel shared run lost the minimality proof", name)
		}
		applyOps(t, sk, a, par)
	}
}

// TestSharedSubsetsBinaryDescentParity: the binary bound search over the
// shared family matches the linear descent's cost and proof.
func TestSharedSubsetsBinaryDescentParity(t *testing.T) {
	a := arch.QX4()
	for seed := int64(0); seed < 8; seed++ {
		sk := randomSkeleton(seed, 3, 6)
		lin, err := Solve(bg, sk, a, Options{Engine: EngineSAT, UseSubsets: true})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		bin, err := Solve(bg, sk, a, Options{Engine: EngineSAT, UseSubsets: true, SAT: SATOptions{BinaryDescent: true}})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if lin.Cost != bin.Cost {
			t.Fatalf("seed %d: linear=%d binary=%d", seed, lin.Cost, bin.Cost)
		}
		if !bin.Minimal || bin.SATEncodes != 1 {
			t.Errorf("seed %d: binary minimal=%v encodes=%d", seed, bin.Minimal, bin.SATEncodes)
		}
		applyOps(t, sk, a, bin)
	}
}

// TestSharedSubsetsOrbitTransferRing: on a symmetric architecture the
// fan-out collapses to one orbit representative. A 6-ring has six connected
// 3-subsets in a single rotation orbit, so five results transfer
// (OrbitHits = 5) and the run still matches the DP fan-out's cost.
func TestSharedSubsetsOrbitTransferRing(t *testing.T) {
	a := arch.Ring(6)
	for seed := int64(0); seed < 4; seed++ {
		sk := randomSkeleton(seed, 3, 5)
		st, err := Solve(bg, sk, a, Options{Engine: EngineSAT, UseSubsets: true})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		dp, err := Solve(bg, sk, a, Options{Engine: EngineDP, UseSubsets: true})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if st.Cost != dp.Cost {
			t.Fatalf("seed %d: shared SAT %d vs DP %d", seed, st.Cost, dp.Cost)
		}
		if st.OrbitHits != 5 {
			t.Errorf("seed %d: OrbitHits = %d, want 5 (6 subsets, 1 rotation orbit)", seed, st.OrbitHits)
		}
		if st.OrbitHits+st.SubsetsPruned == 0 {
			t.Errorf("seed %d: symmetric architecture retired no subsets without probes", seed)
		}
		if st.SATEncodes != 1 {
			t.Errorf("seed %d: encodes = %d, want 1", seed, st.SATEncodes)
		}
		applyOps(t, sk, a, st)
	}
}

// TestSharedSubsetsOrbitTransferGrid: the 2×2 grid's automorphism pairs its
// four connected 3-subsets into two orbits — two results transfer.
func TestSharedSubsetsOrbitTransferGrid(t *testing.T) {
	a := arch.Grid(2, 2)
	subsets := a.ConnectedSubsets(3)
	orbits := arch.SubsetOrbits(subsets, a.Automorphisms(0))
	wantHits := len(subsets) - len(orbits)
	if wantHits == 0 {
		t.Fatalf("grid 2x2 should have non-trivial subset orbits (%d subsets, %d orbits)", len(subsets), len(orbits))
	}
	sk := randomSkeleton(7, 3, 5)
	st, err := Solve(bg, sk, a, Options{Engine: EngineSAT, UseSubsets: true})
	if err != nil {
		t.Fatal(err)
	}
	if st.OrbitHits != wantHits {
		t.Errorf("OrbitHits = %d, want %d", st.OrbitHits, wantHits)
	}
	dp, err := Solve(bg, sk, a, Options{Engine: EngineDP, UseSubsets: true})
	if err != nil {
		t.Fatal(err)
	}
	if st.Cost != dp.Cost {
		t.Fatalf("shared SAT %d vs DP %d", st.Cost, dp.Cost)
	}
	applyOps(t, sk, a, st)
}

// TestSharedSubsetsAsymmetricNoOrbits: QX4's directed coupling map has a
// trivial automorphism group, so nothing transfers — every proof must be
// earned by the descent itself.
func TestSharedSubsetsAsymmetricNoOrbits(t *testing.T) {
	a := arch.QX4()
	sk := randomSkeleton(3, 3, 5)
	st, err := Solve(bg, sk, a, Options{Engine: EngineSAT, UseSubsets: true})
	if err != nil {
		t.Fatal(err)
	}
	if st.OrbitHits != 0 {
		t.Errorf("OrbitHits = %d on an asymmetric architecture, want 0", st.OrbitHits)
	}
}

// TestThreadBudgetClamp pins the unified budget arithmetic: lanes × width
// never exceeds GOMAXPROCS (width shrinks first, lanes stay), and
// degenerate inputs normalize to 1.
func TestThreadBudgetClamp(t *testing.T) {
	max := runtime.GOMAXPROCS(0)
	if got := (ThreadBudget{}).Clamp(); got.Workers != 1 || got.Threads != 1 {
		t.Errorf("zero budget clamps to %+v, want {1 1}", got)
	}
	for _, in := range []ThreadBudget{
		{Workers: 0, Threads: 0},
		{Workers: 1, Threads: 1 << 20},
		{Workers: 1 << 20, Threads: 1 << 20},
		{Workers: 4, Threads: 4},
		{Workers: max, Threads: 2},
	} {
		got := in.Clamp()
		if got.Workers < 1 || got.Threads < 1 {
			t.Errorf("Clamp(%+v) = %+v: lanes and width must stay ≥ 1", in, got)
		}
		if got.Workers > max {
			t.Errorf("Clamp(%+v) = %+v: lanes exceed GOMAXPROCS=%d", in, got, max)
		}
		if got.Threads > 1 && got.Workers*got.Threads > max {
			t.Errorf("Clamp(%+v) = %+v: product exceeds GOMAXPROCS=%d", in, got, max)
		}
		if in.Workers >= 1 && in.Workers <= max && got.Workers != in.Workers {
			t.Errorf("Clamp(%+v) = %+v: in-budget lane count must be preserved (width shrinks first)", in, got)
		}
	}
}
