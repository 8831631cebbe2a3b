package exact

import (
	"context"
	"errors"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/arch"
	"repro/internal/circuit"
	"repro/internal/encoder"
	"repro/internal/perm"
)

var bg = context.Background()

func mkSkeleton(n int, pairs ...[2]int) *circuit.Skeleton {
	sk := &circuit.Skeleton{NumQubits: n}
	for i, p := range pairs {
		sk.Gates = append(sk.Gates, circuit.CNOTGate{Control: p[0], Target: p[1], Index: i})
	}
	return sk
}

// randomSkeleton generates a deterministic pseudo-random skeleton.
func randomSkeleton(seed int64, n, gates int) *circuit.Skeleton {
	state := uint64(seed)*2862933555777941757 + 3037000493
	next := func(mod int) int {
		state = state*2862933555777941757 + 3037000493
		return int((state >> 33) % uint64(mod))
	}
	sk := &circuit.Skeleton{NumQubits: n}
	for i := 0; i < gates; i++ {
		c := next(n)
		t := next(n)
		if c == t {
			t = (t + 1) % n
		}
		sk.Gates = append(sk.Gates, circuit.CNOTGate{Control: c, Target: t, Index: i})
	}
	return sk
}

func TestStrategyPermBeforeExample10(t *testing.T) {
	sk := circuit.Figure1b()
	cases := []struct {
		s    Strategy
		want []int // 0-based gate indices in G'
	}{
		{StrategyAll, []int{1, 2, 3, 4}},
		{StrategyDisjoint, []int{2, 3, 4}}, // paper: G' = {g3, g4, g5}
		{StrategyOdd, []int{2, 4}},         // paper: G' = {g3, g5}
		{StrategyTriangle, []int{1}},       // paper: G' = {g2}
	}
	for _, tc := range cases {
		pb := PermBefore(sk, tc.s)
		if pb[0] {
			t.Errorf("%v: index 0 must never be a perm point", tc.s)
		}
		var got []int
		for k, b := range pb {
			if b {
				got = append(got, k)
			}
		}
		if len(got) != len(tc.want) {
			t.Errorf("%v: G' = %v, want %v", tc.s, got, tc.want)
			continue
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("%v: G' = %v, want %v", tc.s, got, tc.want)
				break
			}
		}
		if CountPermPoints(pb) != len(tc.want) {
			t.Errorf("%v: CountPermPoints = %d", tc.s, CountPermPoints(pb))
		}
	}
}

func TestStrategyString(t *testing.T) {
	for i, name := range strategyNames {
		s := Strategy(i)
		if s.String() != name {
			t.Errorf("%d.String() = %q", i, s.String())
		}
		parsed, err := ParseStrategy(name)
		if err != nil || parsed != s {
			t.Errorf("ParseStrategy(%q) = %v, %v", name, parsed, err)
		}
	}
	if got, want := Strategies(), []string{"all", "disjoint", "odd", "triangle"}; len(got) != len(want) {
		t.Fatalf("Strategies() = %v", got)
	} else {
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("Strategies()[%d] = %q, want %q", i, got[i], want[i])
			}
		}
	}
	_, err := ParseStrategy("bogus")
	if err == nil {
		t.Fatal("bogus strategy should fail")
	}
	// The error must enumerate the valid names (the ParseMethod idiom).
	for _, name := range strategyNames {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not list %q", err, name)
		}
	}
}

func TestDPFigure5MinimalCost(t *testing.T) {
	r, err := Solve(bg, circuit.Figure1b(), arch.QX4(), Options{Engine: EngineDP})
	if err != nil {
		t.Fatal(err)
	}
	if r.Cost != 4 {
		t.Fatalf("DP minimal cost = %d, want 4 (paper Example 7)", r.Cost)
	}
	if r.Engine != "dp" {
		t.Errorf("engine = %q", r.Engine)
	}
}

func TestSATFigure5MinimalCost(t *testing.T) {
	r, err := Solve(bg, circuit.Figure1b(), arch.QX4(), Options{Engine: EngineSAT})
	if err != nil {
		t.Fatal(err)
	}
	if r.Cost != 4 {
		t.Fatalf("SAT minimal cost = %d, want 4 (paper Example 7)", r.Cost)
	}
	if r.SATSolves < 2 {
		t.Errorf("solves = %d, expected at least SAT+UNSAT round", r.SATSolves)
	}
}

// TestEnginesAgree is the central cross-check: the SAT engine (the paper's
// methodology) and the DP oracle must compute identical minimal costs on
// random circuits, for every strategy, with and without subsets.
func TestEnginesAgree(t *testing.T) {
	a := arch.QX4()
	f := func(seed int64, nRaw, gRaw, sRaw uint) bool {
		n := 2 + int(nRaw%3)     // 2..4 logical qubits
		gates := 2 + int(gRaw%6) // 2..7 CNOTs
		strategy := Strategy(sRaw % 4)
		sk := randomSkeleton(seed, n, gates)
		dp, errDP := Solve(bg, sk, a, Options{Engine: EngineDP, Strategy: strategy})
		st, errSAT := Solve(bg, sk, a, Options{Engine: EngineSAT, Strategy: strategy})
		if (errDP == nil) != (errSAT == nil) {
			return false
		}
		if errDP != nil {
			return true
		}
		return dp.Cost == st.Cost
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestSubsetsPreserveMinimality(t *testing.T) {
	// Paper §4.1/Table 1: for the evaluated benchmarks the subset
	// optimization preserved minimal cost. Verify on random 3- and 4-qubit
	// circuits against the full-architecture DP engine.
	a := arch.QX4()
	f := func(seed int64, nRaw uint) bool {
		n := 3 + int(nRaw%2)
		sk := randomSkeleton(seed, n, 6)
		full, err1 := Solve(bg, sk, a, Options{Engine: EngineDP})
		sub, err2 := Solve(bg, sk, a, Options{Engine: EngineDP, UseSubsets: true})
		if err1 != nil || err2 != nil {
			return err1 != nil && err2 != nil
		}
		// The subset-restricted cost can never beat the full instance, and
		// on QX4 it matches (hub-centered subsets cover optimal routes).
		return sub.Cost >= full.Cost
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestSubsetSATAgreesWithDP(t *testing.T) {
	a := arch.QX4()
	sk := randomSkeleton(42, 3, 5)
	dp, err := Solve(bg, sk, a, Options{Engine: EngineDP, UseSubsets: true})
	if err != nil {
		t.Fatal(err)
	}
	st, err := Solve(bg, sk, a, Options{Engine: EngineSAT, UseSubsets: true})
	if err != nil {
		t.Fatal(err)
	}
	if dp.Cost != st.Cost {
		t.Fatalf("subset DP=%d SAT=%d", dp.Cost, st.Cost)
	}
	if dp.SubsetBack == nil || st.SubsetBack == nil {
		t.Error("subset results should carry back-mapping")
	}
}

func TestRestrictedStrategiesOrdering(t *testing.T) {
	// Restricting G' can only increase (never decrease) minimal cost.
	a := arch.QX4()
	f := func(seed int64) bool {
		sk := randomSkeleton(seed, 4, 8)
		all, err := Solve(bg, sk, a, Options{Engine: EngineDP, Strategy: StrategyAll})
		if err != nil {
			return true
		}
		for _, s := range []Strategy{StrategyDisjoint, StrategyOdd, StrategyTriangle} {
			r, err := Solve(bg, sk, a, Options{Engine: EngineDP, Strategy: s})
			if err != nil {
				continue // restricted instance may be unsatisfiable
			}
			if r.Cost < all.Cost {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// applyOps replays an op stream, checking coupling-map compliance and that
// the op stream realizes the skeleton's CNOTs in order under the evolving
// mapping.
func applyOps(t *testing.T, sk *circuit.Skeleton, a *arch.Arch, r *Result) {
	t.Helper()
	ops, err := r.Ops(sk)
	if err != nil {
		t.Fatalf("Ops: %v", err)
	}
	mp := r.InitialMapping()
	swaps, switches := 0, 0
	next := 0
	for _, op := range ops {
		if op.Swap {
			if !a.AllowsEitherDirection(op.A, op.B) {
				t.Fatalf("SWAP on uncoupled pair (%d,%d)", op.A, op.B)
			}
			mp = mp.ApplySwap(op.A, op.B)
			swaps++
			continue
		}
		g := sk.Gates[next]
		if op.GateIndex != next {
			t.Fatalf("gate order: got %d, want %d", op.GateIndex, next)
		}
		next++
		// The executed CNOT must be natively allowed.
		if !a.Allows(op.Control, op.Target) {
			t.Fatalf("gate %d: CNOT(%d→%d) not in coupling map", op.GateIndex, op.Control, op.Target)
		}
		// And must implement the logical gate under the current mapping.
		pc, pt := mp[g.Control], mp[g.Target]
		if op.Switched {
			if op.Control != pt || op.Target != pc {
				t.Fatalf("gate %d: switched op (%d,%d) does not match mapping (%d,%d)",
					op.GateIndex, op.Control, op.Target, pc, pt)
			}
			switches++
		} else if op.Control != pc || op.Target != pt {
			t.Fatalf("gate %d: op (%d,%d) does not match mapping (%d,%d)",
				op.GateIndex, op.Control, op.Target, pc, pt)
		}
	}
	if next != sk.Len() {
		t.Fatalf("only %d of %d gates emitted", next, sk.Len())
	}
	if got := encoder.SwapCost*swaps + encoder.HCost*switches; got != r.Cost {
		t.Fatalf("op-stream cost %d ≠ result cost %d", got, r.Cost)
	}
	if !mp.Equal(r.FinalMapping()) {
		t.Fatalf("final mapping %v ≠ %v", mp, r.FinalMapping())
	}
}

func TestOpsRealizeSolutionDP(t *testing.T) {
	a := arch.QX4()
	for seed := int64(0); seed < 20; seed++ {
		sk := randomSkeleton(seed, 4, 7)
		r, err := Solve(bg, sk, a, Options{Engine: EngineDP})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		applyOps(t, sk, a, r)
	}
}

func TestOpsRealizeSolutionSubsets(t *testing.T) {
	a := arch.QX4()
	for seed := int64(0); seed < 10; seed++ {
		sk := randomSkeleton(seed, 3, 6)
		r, err := Solve(bg, sk, a, Options{Engine: EngineDP, UseSubsets: true})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		applyOps(t, sk, a, r)
	}
}

func TestOpsRealizeSolutionSAT(t *testing.T) {
	a := arch.QX4()
	sk := circuit.Figure1b()
	r, err := Solve(bg, sk, a, Options{Engine: EngineSAT})
	if err != nil {
		t.Fatal(err)
	}
	applyOps(t, sk, a, r)
}

// TestOpsRejectsMappingOutsideSpace: a result whose frame mapping is not a
// placement on its working architecture (a corrupted record) fails to
// materialize with an error instead of panicking.
func TestOpsRejectsMappingOutsideSpace(t *testing.T) {
	sk := circuit.Figure1b()
	r, err := Solve(bg, sk, arch.QX4(), Options{Engine: EngineDP})
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []perm.Mapping{{7, 7, 7, 7}, {0, 0, 1, 2}, {0, 1}} {
		sol := *r.Solution
		sol.FrameMappings = append([]perm.Mapping(nil), r.Solution.FrameMappings...)
		sol.FrameMappings[0] = bad
		c := *r
		c.Solution = &sol
		if _, err := c.Ops(sk); err == nil {
			t.Errorf("frame %v: Ops succeeded", bad)
		}
	}
}

func TestBinaryDescentMatchesLinear(t *testing.T) {
	a := arch.QX4()
	for seed := int64(0); seed < 8; seed++ {
		sk := randomSkeleton(seed, 3, 5)
		lin, err := Solve(bg, sk, a, Options{Engine: EngineSAT})
		if err != nil {
			t.Fatal(err)
		}
		bin, err := Solve(bg, sk, a, Options{Engine: EngineSAT, SAT: SATOptions{BinaryDescent: true}})
		if err != nil {
			t.Fatal(err)
		}
		if lin.Cost != bin.Cost {
			t.Fatalf("seed %d: linear=%d binary=%d", seed, lin.Cost, bin.Cost)
		}
	}
}

func TestStartBoundSpeedsDescent(t *testing.T) {
	a := arch.QX4()
	sk := circuit.Figure1b()
	dp, err := Solve(bg, sk, a, Options{Engine: EngineDP})
	if err != nil {
		t.Fatal(err)
	}
	seeded, err := Solve(bg, sk, a, Options{Engine: EngineSAT, SAT: SATOptions{StartBound: dp.Cost}})
	if err != nil {
		t.Fatal(err)
	}
	if seeded.Cost != dp.Cost {
		t.Fatalf("seeded SAT cost %d ≠ DP cost %d", seeded.Cost, dp.Cost)
	}
	if seeded.SATSolves > 3 {
		t.Errorf("seeded descent used %d solves, expected ≤ 3", seeded.SATSolves)
	}
}

func TestUnsatisfiableInstance(t *testing.T) {
	// Two qubits on a disconnected architecture: no mapping can execute a
	// CNOT between components.
	disc := arch.MustNew("disc", 4, []arch.Pair{{Control: 0, Target: 1}})
	sk := mkSkeleton(3, [2]int{0, 1}, [2]int{1, 2})
	if _, err := Solve(bg, sk, disc, Options{Engine: EngineDP}); err == nil {
		t.Error("DP should report unsatisfiable")
	}
	if _, err := Solve(bg, sk, disc, Options{Engine: EngineSAT}); err == nil {
		t.Error("SAT should report unsatisfiable")
	}
}

func TestEmptySkeleton(t *testing.T) {
	if _, err := Solve(bg, mkSkeleton(2), arch.QX4(), Options{}); err == nil {
		t.Error("empty skeleton should error")
	}
}

func TestDPRejectsHugeSpace(t *testing.T) {
	sk := mkSkeleton(8, [2]int{0, 1})
	if _, err := Solve(bg, sk, arch.QX5(), Options{Engine: EngineDP}); err == nil {
		t.Error("DP on 16-qubit arch without subsets should be rejected")
	}
	// With subsets it becomes feasible for small n.
	sk3 := mkSkeleton(3, [2]int{0, 1}, [2]int{1, 2})
	r, err := Solve(bg, sk3, arch.QX5(), Options{Engine: EngineDP, UseSubsets: true})
	if err != nil {
		t.Fatalf("subset DP on QX5: %v", err)
	}
	if r.Cost != 0 {
		t.Errorf("path of 2 CNOTs on QX5 should cost 0, got %d", r.Cost)
	}
}

func TestFixedInitialMapping(t *testing.T) {
	a := arch.QX4()
	// One CNOT(q0→q1). Free mapping costs 0. Pinning q0→p0, q1→p1 forces
	// a direction switch (only (1,0) ∈ CM): cost 4.
	sk := mkSkeleton(2, [2]int{0, 1})
	free, err := Solve(bg, sk, a, Options{Engine: EngineDP})
	if err != nil {
		t.Fatal(err)
	}
	if free.Cost != 0 {
		t.Fatalf("free cost = %d", free.Cost)
	}
	for _, eng := range []Engine{EngineDP, EngineSAT} {
		pinned, err := Solve(bg, sk, a, Options{Engine: eng, InitialMapping: []int{0, 1}})
		if err != nil {
			t.Fatalf("engine %v: %v", eng, err)
		}
		if pinned.Cost != 4 {
			t.Errorf("engine %v: pinned cost = %d, want 4", eng, pinned.Cost)
		}
		if got := pinned.InitialMapping(); got[0] != 0 || got[1] != 1 {
			t.Errorf("engine %v: initial mapping %v not pinned", eng, got)
		}
	}
	// Pinning to an uncoupled pair forces routing before the first gate:
	// one SWAP plus a direction switch (7 + 4 = 11) is optimal on QX4.
	for _, eng := range []Engine{EngineDP, EngineSAT} {
		far, err := Solve(bg, sk, a, Options{Engine: eng, InitialMapping: []int{0, 4}})
		if err != nil {
			t.Fatalf("engine %v: %v", eng, err)
		}
		if far.Cost != 11 {
			t.Errorf("engine %v: distant pin cost = %d, want 11", eng, far.Cost)
		}
		applyOps(t, sk, a, far)
	}
}

func TestFixedInitialMappingEnginesAgree(t *testing.T) {
	a := arch.QX4()
	f := func(seed int64, pinRaw uint) bool {
		sk := randomSkeleton(seed, 3, 5)
		space := []([]int){{0, 1, 2}, {2, 1, 0}, {4, 3, 2}, {1, 2, 3}}
		pin := space[int(pinRaw%uint(len(space)))]
		dp, err1 := Solve(bg, sk, a, Options{Engine: EngineDP, InitialMapping: pin})
		st, err2 := Solve(bg, sk, a, Options{Engine: EngineSAT, InitialMapping: pin})
		if (err1 == nil) != (err2 == nil) {
			return false
		}
		if err1 != nil {
			return true
		}
		return dp.Cost == st.Cost
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestFixedInitialMappingErrors(t *testing.T) {
	a := arch.QX4()
	sk := mkSkeleton(2, [2]int{0, 1})
	if _, err := Solve(bg, sk, a, Options{InitialMapping: []int{0, 0}}); err == nil {
		t.Error("non-injective pin should fail")
	}
	if _, err := Solve(bg, sk, a, Options{InitialMapping: []int{0, 9}}); err == nil {
		t.Error("out-of-range pin should fail")
	}
	if _, err := Solve(bg, sk, a, Options{InitialMapping: []int{0, 1}, UseSubsets: true}); err == nil {
		t.Error("pin + subsets should fail")
	}
}

func TestParallelSubsetsMatchSequential(t *testing.T) {
	a := arch.QX4()
	for seed := int64(0); seed < 10; seed++ {
		sk := randomSkeleton(seed, 3, 6)
		seq, err := Solve(bg, sk, a, Options{Engine: EngineDP, UseSubsets: true})
		if err != nil {
			t.Fatal(err)
		}
		par, err := Solve(bg, sk, a, Options{Engine: EngineDP, UseSubsets: true, Parallel: true})
		if err != nil {
			t.Fatal(err)
		}
		if seq.Cost != par.Cost {
			t.Fatalf("seed %d: sequential %d vs parallel %d", seed, seq.Cost, par.Cost)
		}
		// The shared best-cost pruning makes the winning *subset* depend on
		// completion order when several tie, but the cost is invariant and
		// the returned plan must still be a valid realization.
		applyOps(t, sk, a, par)
	}
}

// TestTripleOracleAgreement cross-checks all three engines — SAT, DP and
// the independent brute-force enumerator — on tiny random instances.
func TestTripleOracleAgreement(t *testing.T) {
	a := arch.QX4()
	f := func(seed int64, nRaw, gRaw uint) bool {
		n := 2 + int(nRaw%2)     // 2..3 qubits
		gates := 2 + int(gRaw%3) // 2..4 CNOTs (≤ 4 frames for brute force)
		sk := randomSkeleton(seed, n, gates)
		brute, errB := SolveBrute(encoder.Problem{Skeleton: sk, Arch: a})
		dp, errD := Solve(bg, sk, a, Options{Engine: EngineDP})
		st, errS := Solve(bg, sk, a, Options{Engine: EngineSAT})
		if (errB == nil) != (errD == nil) || (errD == nil) != (errS == nil) {
			return false
		}
		if errB != nil {
			return true
		}
		return brute == dp.Cost && dp.Cost == st.Cost
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestBruteForceGuards(t *testing.T) {
	a := arch.QX4()
	// Too many frames.
	sk := randomSkeleton(1, 3, 9)
	if _, err := SolveBrute(encoder.Problem{Skeleton: sk, Arch: a}); err == nil {
		t.Error("brute force should reject many frames")
	}
	// Empty skeleton.
	if _, err := SolveBrute(encoder.Problem{Skeleton: mkSkeleton(2), Arch: a}); err == nil {
		t.Error("brute force should reject empty skeleton")
	}
}

// TestSolveCancellation verifies that both engines abort a running solve
// promptly once the context is cancelled: the SAT engine at the next
// restart boundary, the DP engine at the next frame transition.
func TestSolveCancellation(t *testing.T) {
	a := arch.Ring(6)
	cases := []struct {
		engine  Engine
		gates   int
		timeout time.Duration
	}{
		// The SAT instance is large enough that encoding alone exceeds the
		// deadline; the DP instance has enough frames that several hundred
		// O(size²) transitions remain when the deadline fires.
		{EngineSAT, 60, 30 * time.Millisecond},
		{EngineDP, 2000, 5 * time.Millisecond},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.engine.String(), func(t *testing.T) {
			t.Parallel()
			sk := randomSkeleton(7, 6, tc.gates)
			ctx, cancel := context.WithTimeout(bg, tc.timeout)
			defer cancel()
			start := time.Now()
			_, err := Solve(ctx, sk, a, Options{Engine: tc.engine})
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("err = %v, want context.DeadlineExceeded", err)
			}
			if elapsed := time.Since(start); elapsed > 15*time.Second {
				t.Errorf("cancellation took %v", elapsed)
			}
		})
	}
}

// TestSolveCancellationSubsets cancels the §4.1 fan-out (sequential and
// parallel) before it starts; the fan-out must report the context error
// rather than "no valid mapping".
func TestSolveCancellationSubsets(t *testing.T) {
	a := arch.QX5()
	sk := randomSkeleton(3, 4, 12)
	for _, parallel := range []bool{false, true} {
		ctx, cancel := context.WithCancel(bg)
		cancel()
		_, err := Solve(ctx, sk, a, Options{Engine: EngineDP, UseSubsets: true, Parallel: parallel})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("parallel=%v: err = %v, want context.Canceled", parallel, err)
		}
	}
}

// TestUnsatisfiableSentinel checks that embedding failures surface
// ErrUnsatisfiable for errors.Is-based handling (the portfolio layer's
// bound-retry depends on it).
func TestUnsatisfiableSentinel(t *testing.T) {
	// Two disconnected components cannot host a 3-qubit chain.
	disc := arch.MustNew("disc", 4, []arch.Pair{{Control: 0, Target: 1}, {Control: 2, Target: 3}})
	sk := mkSkeleton(3, [2]int{0, 1}, [2]int{1, 2})
	for _, eng := range []Engine{EngineSAT, EngineDP} {
		if _, err := Solve(bg, sk, disc, Options{Engine: eng}); !errors.Is(err, ErrUnsatisfiable) {
			t.Errorf("engine %v: err = %v, want ErrUnsatisfiable", eng, err)
		}
	}
}

// TestStartBoundRelaxRecovers: an undercut StartBound does not fail the
// solve — the engine detects the failed bound assumption, relaxes it on the
// same solver instance and still proves the true optimum, with exactly one
// encode.
func TestStartBoundRelaxRecovers(t *testing.T) {
	lin := arch.Linear(3)
	sk := mkSkeleton(3, [2]int{0, 1}, [2]int{1, 2}, [2]int{0, 2})
	ref, err := Solve(bg, sk, lin, Options{Engine: EngineDP})
	if err != nil {
		t.Fatal(err)
	}
	if ref.Cost == 0 {
		t.Fatal("instance unexpectedly free: the StartBound cannot undercut a zero optimum")
	}
	for _, binary := range []bool{false, true} {
		r, err := Solve(bg, sk, lin, Options{Engine: EngineSAT,
			SAT: SATOptions{StartBound: ref.Cost - 1, BinaryDescent: binary}})
		if err != nil {
			t.Fatalf("binary=%v: %v", binary, err)
		}
		if r.Cost != ref.Cost {
			t.Errorf("binary=%v: cost %d after relax, want %d", binary, r.Cost, ref.Cost)
		}
		if !r.Minimal {
			t.Errorf("binary=%v: relaxed descent should still prove minimality", binary)
		}
		if r.SATEncodes != 1 {
			t.Errorf("binary=%v: Encodes = %d, want 1 (relax must not re-encode)", binary, r.SATEncodes)
		}
	}
}

// TestDescentParityOracles is the incremental-descent parity suite: on a
// corpus of small random instances, linear descent, binary descent, the DP
// oracle and the independent brute-force enumerator must all agree on the
// minimal cost, and each SAT run must encode exactly once.
func TestDescentParityOracles(t *testing.T) {
	a := arch.QX4()
	for seed := int64(0); seed < 12; seed++ {
		n := 2 + int(seed%2)     // 2..3 qubits
		gates := 2 + int(seed%3) // 2..4 CNOTs (≤ 4 frames for brute force)
		sk := randomSkeleton(seed, n, gates)
		brute, err := SolveBrute(encoder.Problem{Skeleton: sk, Arch: a})
		if err != nil {
			continue // instance outside the brute enumerator's limits
		}
		dp, err := Solve(bg, sk, a, Options{Engine: EngineDP})
		if err != nil {
			t.Fatalf("seed %d: dp: %v", seed, err)
		}
		lin, err := Solve(bg, sk, a, Options{Engine: EngineSAT})
		if err != nil {
			t.Fatalf("seed %d: linear: %v", seed, err)
		}
		bin, err := Solve(bg, sk, a, Options{Engine: EngineSAT, SAT: SATOptions{BinaryDescent: true}})
		if err != nil {
			t.Fatalf("seed %d: binary: %v", seed, err)
		}
		if brute != dp.Cost || dp.Cost != lin.Cost || lin.Cost != bin.Cost {
			t.Errorf("seed %d: brute=%d dp=%d linear=%d binary=%d", seed, brute, dp.Cost, lin.Cost, bin.Cost)
		}
		for _, r := range []*Result{dp, lin, bin} {
			if !r.Minimal {
				t.Errorf("seed %d: %s run did not report proven minimality", seed, r.Engine)
			}
		}
		for _, r := range []*Result{lin, bin} {
			if r.SATEncodes != 1 {
				t.Errorf("seed %d: SAT run encoded %d times, want 1", seed, r.SATEncodes)
			}
		}
	}
}

// TestBinaryDescentSingleEncode pins the headline incremental-solving win:
// binary descent previously re-encoded the instance for every midpoint
// probe (O(log F) Encode calls); it must now run all probes on one
// encoding via guard assumptions.
func TestBinaryDescentSingleEncode(t *testing.T) {
	r, err := Solve(bg, circuit.Figure1b(), arch.QX4(), Options{Engine: EngineSAT, SAT: SATOptions{BinaryDescent: true}})
	if err != nil {
		t.Fatal(err)
	}
	if r.Cost != 4 {
		t.Fatalf("cost = %d, want 4", r.Cost)
	}
	if r.SATEncodes != 1 {
		t.Errorf("Encodes = %d, want exactly 1 for the whole binary descent", r.SATEncodes)
	}
	if r.SATSolves < 2 {
		t.Errorf("Solves = %d, expected several probes on the single encoding", r.SATSolves)
	}
	if !r.Minimal {
		t.Error("completed binary descent must report proven minimality")
	}
}

// TestBudgetTruncationReportsMinimality: a budget generous enough to finish
// the descent yields a PROVEN minimal result (Minimal true) even though a
// conflict budget was set — the old config-derived inference reported
// false; a budget that truncates the descent after the first model yields
// a valid best-effort result with Minimal false.
func TestBudgetTruncationReportsMinimality(t *testing.T) {
	a := arch.QX4()
	sk := circuit.Figure1b()
	full, err := Solve(bg, sk, a, Options{Engine: EngineSAT, SAT: SATOptions{MaxConflicts: 1 << 20}})
	if err != nil {
		t.Fatal(err)
	}
	if !full.Minimal || full.Cost != 4 {
		t.Errorf("generous budget: cost=%d minimal=%v, want 4/true (proof completed within budget)", full.Cost, full.Minimal)
	}

	// Find a budget that admits the first model but truncates the proof.
	truncated := false
	for budget := int64(1); budget <= 1<<14 && !truncated; budget *= 2 {
		sk := randomSkeleton(3, 4, 8)
		r, err := Solve(bg, sk, a, Options{Engine: EngineSAT, SAT: SATOptions{MaxConflicts: budget}})
		if err != nil {
			continue // budget exhausted before any model
		}
		if !r.Minimal {
			truncated = true
			if r.Solution == nil || r.Cost < 0 {
				t.Errorf("budget %d: best-effort result without a valid model (cost %d)", budget, r.Cost)
			}
		}
	}
	if !truncated {
		t.Fatal("no budget produced a truncated best-effort run on this corpus")
	}
}

// TestSubsetErrorPropagation is the §4.1 error-handling regression: a
// solveOne failure that is NOT ErrUnsatisfiable — here an unknown engine,
// and a conflict-budget exhaustion — must surface verbatim from both the
// sequential and the parallel fan-out instead of being misreported as
// "unsatisfiable on any connected subset".
func TestSubsetErrorPropagation(t *testing.T) {
	a := arch.QX5()
	sk := randomSkeleton(3, 3, 6)
	for _, parallel := range []bool{false, true} {
		_, err := Solve(bg, sk, a, Options{Engine: Engine(99), UseSubsets: true, Parallel: parallel})
		if err == nil || errors.Is(err, ErrUnsatisfiable) {
			t.Fatalf("parallel=%v: unknown engine err = %v, want verbatim propagation", parallel, err)
		}
		if !strings.Contains(err.Error(), "unknown engine") {
			t.Errorf("parallel=%v: err = %q, want the engine error verbatim", parallel, err)
		}
	}

	// A budget so small no subset can even find a first model: the budget
	// error must surface, not an unsatisfiability claim.
	for _, parallel := range []bool{false, true} {
		_, err := Solve(bg, sk, a, Options{Engine: EngineSAT, UseSubsets: true, Parallel: parallel,
			SAT: SATOptions{MaxConflicts: 1}})
		if err == nil {
			t.Fatalf("parallel=%v: expected an error from the budgeted run", parallel)
		}
		if errors.Is(err, ErrUnsatisfiable) {
			t.Errorf("parallel=%v: budget exhaustion misreported as unsatisfiable: %v", parallel, err)
		}
		if !strings.Contains(err.Error(), "budget") {
			t.Errorf("parallel=%v: err = %q, want the budget error verbatim", parallel, err)
		}
	}
}

// TestSubsetSharedBoundPruning: the §4.1 fan-out with the SAT engine,
// sequential and parallel, must agree with the DP oracle, count its encode,
// and keep the minimality proof (subsets retired by the incumbent are
// proven by their admissible lower bounds, the rest by family UNSAT
// probes).
func TestSubsetSharedBoundPruning(t *testing.T) {
	a := arch.QX5()
	for seed := int64(0); seed < 6; seed++ {
		sk := randomSkeleton(seed, 3, 5)
		dp, err := Solve(bg, sk, a, Options{Engine: EngineDP, UseSubsets: true})
		if err != nil {
			t.Fatalf("seed %d: dp: %v", seed, err)
		}
		for _, parallel := range []bool{false, true} {
			st, err := Solve(bg, sk, a, Options{Engine: EngineSAT, UseSubsets: true, Parallel: parallel})
			if err != nil {
				t.Fatalf("seed %d parallel=%v: %v", seed, parallel, err)
			}
			if st.Cost != dp.Cost {
				t.Errorf("seed %d parallel=%v: SAT=%d DP=%d", seed, parallel, st.Cost, dp.Cost)
			}
			if st.SATEncodes < 1 {
				t.Errorf("seed %d parallel=%v: Encodes = %d, want ≥ 1", seed, parallel, st.SATEncodes)
			}
			if !st.Minimal {
				t.Errorf("seed %d parallel=%v: subset run lost the minimality proof", seed, parallel)
			}
			applyOps(t, sk, a, st)
		}
	}
}

// TestSubsetBudgetHonestMinimality: budgeted §4.1 runs must never abort a
// solve that holds a valid incumbent just because a family probe below it
// (F ≤ best−1) ran out of budget — they degrade to the incumbent. And
// whenever such a run claims Minimal, its cost must actually be the subset
// optimum (checked against the DP oracle).
func TestSubsetBudgetHonestMinimality(t *testing.T) {
	a := arch.QX5()
	degraded := false
	for seed := int64(0); seed < 5; seed++ {
		sk := randomSkeleton(seed, 3, 6)
		dp, err := Solve(bg, sk, a, Options{Engine: EngineDP, UseSubsets: true})
		if err != nil {
			continue
		}
		for budget := int64(64); budget <= 1<<13; budget *= 8 {
			r, err := Solve(bg, sk, a, Options{Engine: EngineSAT, UseSubsets: true,
				SAT: SATOptions{MaxConflicts: budget}})
			if err != nil {
				// Acceptable only when not even a first model fit the
				// budget anywhere; never an unsatisfiability claim.
				if errors.Is(err, ErrUnsatisfiable) {
					t.Fatalf("seed %d budget %d: budgeted run misreported as unsatisfiable: %v", seed, budget, err)
				}
				continue
			}
			if r.Cost < dp.Cost {
				t.Fatalf("seed %d budget %d: cost %d beats the DP optimum %d", seed, budget, r.Cost, dp.Cost)
			}
			if r.Minimal && r.Cost != dp.Cost {
				t.Errorf("seed %d budget %d: claims Minimal at cost %d, optimum is %d", seed, budget, r.Cost, dp.Cost)
			}
			if !r.Minimal {
				degraded = true
			}
			applyOps(t, sk, a, r)
		}
	}
	_ = degraded // informational: some budget truncated a proof on this corpus
}
