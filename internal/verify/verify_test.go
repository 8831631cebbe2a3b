package verify

import (
	"context"
	"fmt"
	"math/cmplx"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/circuit"
	"repro/internal/exact"
	"repro/internal/heuristic"
	"repro/internal/perm"
	"repro/internal/sim"
)

func TestCouplingCompliant(t *testing.T) {
	a := arch.QX4()
	good := circuit.New(5).AddH(0).AddCNOT(1, 0).AddCNOT(3, 2)
	if err := CouplingCompliant(good, a); err != nil {
		t.Errorf("compliant circuit rejected: %v", err)
	}
	bad := circuit.New(5).AddCNOT(0, 1) // (0,1) ∉ CM (only (1,0) is)
	if err := CouplingCompliant(bad, a); err == nil {
		t.Error("reversed CNOT should be rejected")
	}
	swapful := circuit.New(5).AddSWAP(0, 1)
	if err := CouplingCompliant(swapful, a); err == nil {
		t.Error("undec SWAP should be rejected")
	}
	tooBig := circuit.New(6).AddH(5)
	if err := CouplingCompliant(tooBig, a); err == nil {
		t.Error("oversized circuit should be rejected")
	}
}

// exactOps solves Figure 1b on QX4 and returns everything for verification.
func exactOps(t *testing.T) (*circuit.Skeleton, *exact.Result, []circuit.MappedOp) {
	t.Helper()
	sk := circuit.Figure1b()
	r, err := exact.Solve(context.Background(), sk, arch.QX4(), exact.Options{Engine: exact.EngineDP})
	if err != nil {
		t.Fatal(err)
	}
	ops, err := r.Ops(sk)
	if err != nil {
		t.Fatal(err)
	}
	return sk, r, ops
}

func TestOpStreamAcceptsExactResult(t *testing.T) {
	sk, r, ops := exactOps(t)
	final, err := OpStream(sk, arch.QX4(), ops, r.InitialMapping())
	if err != nil {
		t.Fatal(err)
	}
	if !final.Equal(r.FinalMapping()) {
		t.Errorf("final = %v, want %v", final, r.FinalMapping())
	}
}

func TestOpStreamRejectsCorruption(t *testing.T) {
	sk, r, ops := exactOps(t)
	a := arch.QX4()

	// Dropping a CNOT: too few gates.
	var chopped []circuit.MappedOp
	for _, op := range ops {
		if !op.Swap && op.GateIndex == sk.Len()-1 {
			continue
		}
		chopped = append(chopped, op)
	}
	if _, err := OpStream(sk, a, chopped, r.InitialMapping()); err == nil {
		t.Error("missing gate should be caught")
	}

	// Flipping a direction without the Switched flag.
	flipped := append([]circuit.MappedOp(nil), ops...)
	for i, op := range flipped {
		if !op.Swap {
			flipped[i].Control, flipped[i].Target = op.Target, op.Control
			break
		}
	}
	if _, err := OpStream(sk, a, flipped, r.InitialMapping()); err == nil {
		t.Error("flipped CNOT should be caught")
	}

	// Bad initial mapping length.
	if _, err := OpStream(sk, a, ops, perm.Mapping{0, 1}); err == nil {
		t.Error("short mapping should be caught")
	}
}

func TestSkeletonOpsAcceptsExactResult(t *testing.T) {
	sk, r, ops := exactOps(t)
	if err := SkeletonOps(sk, 5, ops, r.InitialMapping(), r.FinalMapping()); err != nil {
		t.Fatal(err)
	}
}

func TestSkeletonOpsAcceptsHeuristicResult(t *testing.T) {
	sk := circuit.Figure1b()
	h, err := heuristic.Map(context.Background(), sk, arch.QX4(), heuristic.Options{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if err := SkeletonOps(sk, 5, h.Ops, h.InitialMapping, h.FinalMapping); err != nil {
		t.Fatal(err)
	}
}

func TestSkeletonOpsCatchesWrongGate(t *testing.T) {
	sk, r, ops := exactOps(t)
	bad := append([]circuit.MappedOp(nil), ops...)
	for i, op := range bad {
		if !op.Swap {
			// Pretend the gate was switched when it was not (or vice
			// versa): the GF(2) semantics change.
			bad[i].Switched = !op.Switched
			break
		}
	}
	if err := SkeletonOps(sk, 5, bad, r.InitialMapping(), r.FinalMapping()); err == nil {
		t.Error("wrong switch flag should fail the GF(2) check")
	}
}

func TestEquivalentOnHandBuiltMapping(t *testing.T) {
	// Original: CNOT(q0→q1). Mapped to QX4 with q0→p1, q1→p0: CNOT(p1→p0)
	// is natively allowed; identity layouts elsewhere.
	orig := circuit.New(2).AddCNOT(0, 1)
	mapped := circuit.New(5).AddCNOT(1, 0)
	if err := Equivalent(orig, mapped, 5, perm.Mapping{1, 0}, perm.Mapping{1, 0}); err != nil {
		t.Fatal(err)
	}
}

func TestEquivalentDirectionSwitch(t *testing.T) {
	// Original CNOT(q0→q1) with q0→p0, q1→p1 on QX4 needs the 4-H trick:
	// H p0, H p1, CNOT(p1→p0), H p0, H p1.
	orig := circuit.New(2).AddCNOT(0, 1)
	mapped := circuit.New(5).
		AddH(0).AddH(1).AddCNOT(1, 0).AddH(0).AddH(1)
	if err := Equivalent(orig, mapped, 5, perm.Mapping{0, 1}, perm.Mapping{0, 1}); err != nil {
		t.Fatal(err)
	}
}

func TestEquivalentCatchesWrongCircuit(t *testing.T) {
	orig := circuit.New(2).AddCNOT(0, 1)
	wrong := circuit.New(5).AddCNOT(1, 0).AddX(2) // stray X on unused qubit
	err := Equivalent(orig, wrong, 5, perm.Mapping{1, 0}, perm.Mapping{1, 0})
	if err == nil {
		t.Fatal("stray gate should break equivalence")
	}
	if !strings.Contains(err.Error(), "fidelity") {
		t.Errorf("unexpected error: %v", err)
	}
}

func TestEquivalentWithSwapRelocation(t *testing.T) {
	// Original: CNOT(q0→q1) twice with a swap in between is just two
	// CNOTs; simpler: verify a mapped circuit whose final layout differs
	// from the initial one. Original: CNOT(q0→q1). Mapped: SWAP p0,p1
	// implemented as 3 CNOTs (only directions allowed by QX4), then
	// CNOT realizing the logical gate from the new layout.
	orig := circuit.New(2).AddCNOT(0, 1)
	// SWAP p0,p1 on QX4: CNOT(1→0), H-switched CNOT(0→1), CNOT(1→0);
	// then the logical CNOT itself from the post-swap layout.
	mapped := circuit.New(5).
		AddCNOT(1, 0).
		AddH(0).AddH(1).AddCNOT(1, 0).AddH(0).AddH(1).
		AddCNOT(1, 0).
		AddCNOT(1, 0)
	// Initial q0→p0, q1→p1; after the SWAP q0→p1, q1→p0; the final
	// CNOT(p1→p0) realizes CNOT(q0→q1).
	if err := Equivalent(orig, mapped, 5, perm.Mapping{0, 1}, perm.Mapping{1, 0}); err != nil {
		t.Fatal(err)
	}
}

func TestEquivalentRejectsOversized(t *testing.T) {
	orig := circuit.New(2).AddCNOT(0, 1)
	mapped := circuit.New(13).AddCNOT(1, 0)
	if err := Equivalent(orig, mapped, 13, perm.Mapping{1, 0}, perm.Mapping{1, 0}); err == nil {
		t.Error("13 qubits should exceed simulator limit")
	}
}

func TestOpStreamMoreCorruption(t *testing.T) {
	sk, r, ops := exactOps(t)
	a := arch.QX4()

	// Extra CNOT op beyond the skeleton.
	extra := append(append([]circuit.MappedOp(nil), ops...),
		circuit.MappedOp{GateIndex: sk.Len(), Control: 1, Target: 0})
	if _, err := OpStream(sk, a, extra, r.InitialMapping()); err == nil {
		t.Error("extra op should be caught")
	}

	// Wrong gate index ordering.
	reordered := append([]circuit.MappedOp(nil), ops...)
	for i, op := range reordered {
		if !op.Swap {
			reordered[i].GateIndex = op.GateIndex + 1
			break
		}
	}
	if _, err := OpStream(sk, a, reordered, r.InitialMapping()); err == nil {
		t.Error("wrong gate index should be caught")
	}

	// SWAP on an uncoupled pair.
	badSwap := append([]circuit.MappedOp{{Swap: true, A: 0, B: 4}}, ops...)
	if _, err := OpStream(sk, a, badSwap, r.InitialMapping()); err == nil {
		t.Error("uncoupled SWAP should be caught")
	}

	// Non-injective initial mapping.
	if _, err := OpStream(sk, a, ops, perm.Mapping{0, 0, 1, 2}); err == nil {
		t.Error("invalid mapping should be caught")
	}
}

func TestSkeletonOpsCatchesExtraSwap(t *testing.T) {
	sk, r, ops := exactOps(t)
	// A stray SWAP between used and unused qubits changes the final
	// permutation and must fail the GF(2) check against the same layouts.
	bad := append(append([]circuit.MappedOp(nil), ops...),
		circuit.MappedOp{Swap: true, A: r.FinalMapping()[0], B: unusedPhys(r.FinalMapping(), 5)})
	if err := SkeletonOps(sk, 5, bad, r.InitialMapping(), r.FinalMapping()); err == nil {
		t.Error("stray SWAP should fail GF(2) check")
	}
}

// unusedPhys returns a physical qubit not present in mp.
func unusedPhys(mp perm.Mapping, m int) int {
	used := map[int]bool{}
	for _, i := range mp {
		used[i] = true
	}
	for i := 0; i < m; i++ {
		if !used[i] {
			return i
		}
	}
	panic("no unused qubit")
}

func TestEquivalentLayoutSizeMismatch(t *testing.T) {
	orig := circuit.New(2).AddCNOT(0, 1)
	mapped := circuit.New(5).AddCNOT(1, 0)
	if err := Equivalent(orig, mapped, 5, perm.Mapping{1}, perm.Mapping{1, 0}); err == nil {
		t.Error("short layout should be rejected")
	}
}

func TestSkeletonOpsRejectsHuge(t *testing.T) {
	sk := &circuit.Skeleton{NumQubits: 2, Gates: []circuit.CNOTGate{{Control: 0, Target: 1}}}
	if err := SkeletonOps(sk, 65, nil, perm.Mapping{0, 1}, perm.Mapping{0, 1}); err == nil {
		t.Error("m > 64 should be rejected")
	}
}

// equivalentPerBasis is the reference for Equivalent: the original check,
// which simulates each basis state on its own (validating and preparing
// every gate once per basis state) and stops at the first failing one.
func equivalentPerBasis(original, mapped *circuit.Circuit, m int, initial, final perm.Mapping) error {
	n := original.NumQubits()
	if m > sim.MaxQubits {
		return fmt.Errorf("verify: %d physical qubits exceed simulator limit %d", m, sim.MaxQubits)
	}
	if len(initial) != n || len(final) != n {
		return fmt.Errorf("verify: layout sizes %d/%d for %d qubits", len(initial), len(final), n)
	}
	const eps = 1e-9
	var phase complex128
	for b := 0; b < 1<<uint(n); b++ {
		orig := sim.NewBasisState(n, b)
		if err := orig.Run(original); err != nil {
			return fmt.Errorf("verify: simulating original: %w", err)
		}
		idx := 0
		for j := 0; j < n; j++ {
			if b>>uint(j)&1 == 1 {
				idx |= 1 << uint(initial[j])
			}
		}
		mapState := sim.NewBasisState(m, idx)
		if err := mapState.Run(mapped); err != nil {
			return fmt.Errorf("verify: simulating mapped: %w", err)
		}
		exp := make([]complex128, 1<<uint(m))
		for x := 0; x < 1<<uint(n); x++ {
			y := 0
			for j := 0; j < n; j++ {
				if x>>uint(j)&1 == 1 {
					y |= 1 << uint(final[j])
				}
			}
			exp[y] = orig.Amplitude(x)
		}
		var ip complex128
		for y, want := range exp {
			ip += cmplx.Conj(want) * mapState.Amplitude(y)
		}
		if d := cmplx.Abs(ip); d < 1-eps {
			return fmt.Errorf("verify: basis %d: fidelity %.12f < 1", b, d)
		}
		if b == 0 {
			phase = ip
		} else if cmplx.Abs(ip-phase) > 1e-6 {
			return fmt.Errorf("verify: basis %d: phase %.6f differs from %.6f (not a uniform global phase)", b, ip, phase)
		}
	}
	return nil
}

// randomCircuit returns an elementary n-qubit circuit: an H on qubit 0
// and a CNOT, then gates random single-qubit gates and CNOTs.
func randomCircuit(rng *rand.Rand, n, gates int) *circuit.Circuit {
	c := circuit.New(n).AddH(0).AddCNOT(0, 1)
	for i := 0; i < gates; i++ {
		q := rng.Intn(n)
		switch rng.Intn(7) {
		case 0:
			c.AddH(q)
		case 1:
			c.AddT(q)
		case 2:
			c.AddS(q)
		case 3:
			c.AddX(q)
		case 4:
			c.AddU(q, rng.Float64()*3, rng.Float64()*3, rng.Float64()*3)
		default:
			t := (q + 1 + rng.Intn(n-1)) % n
			c.AddCNOT(q, t)
		}
	}
	return c
}

// mapCircuit maps c onto QX4 with the DP engine and realizes the op
// stream as a circuit: SWAP gates for the inserted swaps, H-conjugated
// CNOTs for switched ones, and c's single-qubit gates on the physical
// qubit holding their logical qubit at that point.
func mapCircuit(t testing.TB, c *circuit.Circuit) (mapped *circuit.Circuit, initial, final perm.Mapping) {
	t.Helper()
	sk, err := circuit.ExtractSkeleton(c)
	if err != nil {
		t.Fatal(err)
	}
	r, err := exact.Solve(context.Background(), sk, arch.QX4(), exact.Options{Engine: exact.EngineDP})
	if err != nil {
		t.Fatal(err)
	}
	ops, err := r.Ops(sk)
	if err != nil {
		t.Fatal(err)
	}
	mapped = circuit.New(5)
	mp := r.InitialMapping()
	gates := c.Gates()
	next := 0
	emitSingles := func() {
		for ; next < len(gates) && gates[next].Kind != circuit.KindCNOT; next++ {
			g := gates[next]
			g.Qubits = []int{mp[g.Qubits[0]]}
			mapped.MustAppend(g)
		}
	}
	for _, op := range ops {
		if op.Swap {
			mapped.AddSWAP(op.A, op.B)
			mp = mp.ApplySwap(op.A, op.B)
			continue
		}
		emitSingles()
		next++ // the CNOT op realizes
		if op.Switched {
			mapped.AddH(op.Control).AddH(op.Target).AddCNOT(op.Control, op.Target).AddH(op.Control).AddH(op.Target)
		} else {
			mapped.AddCNOT(op.Control, op.Target)
		}
	}
	emitSingles()
	return mapped, r.InitialMapping(), r.FinalMapping()
}

// TestEquivalentMatchesPerBasisReference: the one-pass check and the
// per-basis reference accept and reject the same circuits with the same
// error, naming the same basis index — on correctly mapped random
// circuits, on corruptions of them (a dropped H, a swapped final layout, a
// Z on one qubit, whose phase differs between basis states), and on
// unrelated random pairs.
func TestEquivalentMatchesPerBasisReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	check := func(what string, orig, mapped *circuit.Circuit, m int, initial, final perm.Mapping, wantOK bool) {
		t.Helper()
		got, want := Equivalent(orig, mapped, m, initial, final), equivalentPerBasis(orig, mapped, m, initial, final)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%s: one-pass %v, per-basis %v", what, got, want)
		}
		if (got == nil) != wantOK {
			t.Fatalf("%s: verdict %v, want accepted=%v", what, got, wantOK)
		}
	}
	for i := 0; i < 40; i++ {
		n := 2 + i%3
		orig := randomCircuit(rng, n, 4+rng.Intn(12))
		mapped, initial, final := mapCircuit(t, orig)
		check(fmt.Sprintf("case %d mapped", i), orig, mapped, 5, initial, final, true)

		dropped := circuit.New(5)
		droppedOne := false
		for _, g := range mapped.Gates() {
			if g.Kind == circuit.KindH && !droppedOne {
				droppedOne = true
				continue
			}
			dropped.MustAppend(g)
		}
		check(fmt.Sprintf("case %d dropped H", i), orig, dropped, 5, initial, final, false)

		swapped := final.Copy()
		swapped[0], swapped[1] = swapped[1], swapped[0]
		check(fmt.Sprintf("case %d swapped final layout", i), orig, mapped, 5, initial, swapped, false)

		phased := mapped.Copy().MustAppend(circuit.Z(final[rng.Intn(n)]))
		check(fmt.Sprintf("case %d extra Z", i), orig, phased, 5, initial, final, false)

		other := randomCircuit(rng, n, 8)
		check(fmt.Sprintf("case %d unrelated", i), orig, other, n, perm.IdentityMapping(n), perm.IdentityMapping(n), false)
	}
	// A 12-qubit register splits the 32 basis states of a 5-qubit circuit
	// into batches of 16. Logical qubit 4 is idle, so a Z on its physical
	// qubit flips the phase of exactly the basis states from 16 on: the
	// first failure is the first state of the second batch.
	five := circuit.New(5).AddCNOT(0, 1).AddCNOT(2, 3)
	layout := perm.Mapping{11, 3, 7, 0, 5}
	wide := circuit.New(12).AddCNOT(11, 3).AddCNOT(7, 0)
	check("12-qubit register", five, wide, 12, layout, layout, true)
	err := Equivalent(five, wide.Copy().MustAppend(circuit.Z(5)), 12, layout, layout)
	if err == nil || !strings.Contains(err.Error(), "basis 16:") {
		t.Fatalf("Z on an idle qubit across batches: %v, want a phase error at basis 16", err)
	}
	check("12-qubit register, extra Z", five, wide.Copy().MustAppend(circuit.Z(5)), 12, layout, layout, false)
	// Against the identity, a controlled-Z over all five qubits flips the
	// phase of the last basis state alone, so a check that stops short of
	// it accepts.
	last := circuit.New(12).AddH(5).AddMCT([]int{11, 3, 7, 0}, 5).AddH(5)
	err = Equivalent(circuit.New(5), last, 12, layout, layout)
	if err == nil || !strings.Contains(err.Error(), "basis 31:") {
		t.Fatalf("phase on the last basis state: %v, want a phase error at basis 31", err)
	}
	check("12-qubit register, phase on the last state", circuit.New(5), last, 12, layout, layout, false)

	// Simulation errors surface identically, before any basis state is
	// compared: a mapped circuit wider than the register.
	check("mapped too wide", circuit.New(2).AddCNOT(0, 1), circuit.New(5).AddCNOT(4, 3), 3,
		perm.Mapping{0, 1}, perm.Mapping{0, 1}, false)
}
