// Package verify establishes that mapped circuits are correct: compliant
// with the target architecture's CNOT constraints, structurally faithful to
// the original gate sequence, and semantically equivalent to the original
// circuit under the chosen initial/final qubit layouts.
//
// Three independent layers are provided, from cheap to exhaustive:
//
//  1. CouplingCompliant — static constraint check (paper Definition 2).
//  2. OpStream / SkeletonOps — structural and GF(2)-linear replay of a
//     mapped op stream against the CNOT skeleton.
//  3. Equivalent — full unitary equivalence by basis-state simulation.
package verify

import (
	"fmt"
	"math/cmplx"

	"repro/internal/arch"
	"repro/internal/circuit"
	"repro/internal/perm"
	"repro/internal/sim"
)

// CouplingCompliant checks that the circuit uses only elementary gates and
// that every CNOT's (control, target) pair is natively allowed by the
// architecture. SWAP gates are rejected: a compliant circuit must have them
// decomposed.
func CouplingCompliant(c *circuit.Circuit, a *arch.Arch) error {
	if c.NumQubits() > a.NumQubits() {
		return fmt.Errorf("verify: circuit has %d qubits, %s has %d", c.NumQubits(), a, a.NumQubits())
	}
	for i, g := range c.Gates() {
		switch {
		case g.Kind.IsSingleQubit():
			// Always executable.
		case g.Kind == circuit.KindCNOT:
			if !a.Allows(g.Qubits[0], g.Qubits[1]) {
				return fmt.Errorf("verify: gate %d: CNOT(p%d→p%d) violates coupling map of %s",
					i, g.Qubits[0], g.Qubits[1], a.Name())
			}
		default:
			return fmt.Errorf("verify: gate %d: %s is not elementary", i, g.Kind)
		}
	}
	return nil
}

// OpStream replays a mapped op stream against the skeleton, checking that
// SWAPs use coupled pairs, CNOT ops realize the skeleton gates in order
// under the evolving layout, and executed directions are natively allowed.
// It returns the final layout.
func OpStream(sk *circuit.Skeleton, a *arch.Arch, ops []circuit.MappedOp, initial perm.Mapping) (perm.Mapping, error) {
	if len(initial) != sk.NumQubits {
		return nil, fmt.Errorf("verify: initial mapping has %d entries for %d qubits", len(initial), sk.NumQubits)
	}
	if !initial.Valid(a.NumQubits()) {
		return nil, fmt.Errorf("verify: initial mapping %v invalid", initial)
	}
	mp := initial.Copy()
	next := 0
	for oi, op := range ops {
		if op.Swap {
			if !a.AllowsEitherDirection(op.A, op.B) {
				return nil, fmt.Errorf("verify: op %d: SWAP(p%d,p%d) on uncoupled pair", oi, op.A, op.B)
			}
			mp = mp.ApplySwap(op.A, op.B)
			continue
		}
		if next >= sk.Len() {
			return nil, fmt.Errorf("verify: op %d: more CNOT ops than skeleton gates", oi)
		}
		g := sk.Gates[next]
		if op.GateIndex != next {
			return nil, fmt.Errorf("verify: op %d: implements gate %d, expected %d", oi, op.GateIndex, next)
		}
		next++
		if !a.Allows(op.Control, op.Target) {
			return nil, fmt.Errorf("verify: op %d: CNOT(p%d→p%d) violates coupling map", oi, op.Control, op.Target)
		}
		pc, pt := mp[g.Control], mp[g.Target]
		if op.Switched {
			if op.Control != pt || op.Target != pc {
				return nil, fmt.Errorf("verify: op %d: switched CNOT(p%d→p%d) does not realize g%d under layout %v",
					oi, op.Control, op.Target, next, mp)
			}
		} else if op.Control != pc || op.Target != pt {
			return nil, fmt.Errorf("verify: op %d: CNOT(p%d→p%d) does not realize g%d under layout %v",
				oi, op.Control, op.Target, next, mp)
		}
	}
	if next != sk.Len() {
		return nil, fmt.Errorf("verify: only %d of %d skeleton gates realized", next, sk.Len())
	}
	return mp, nil
}

// SkeletonOps performs the GF(2)-linear equivalence check: the net linear
// action of the op stream on the physical qubits must equal the skeleton's
// linear action on the logical qubits, conjugated by the initial and final
// layouts. Unused physical qubits must come out as a permutation of unused
// inputs. This check is independent of OpStream's structural replay and
// scales to arbitrarily long circuits.
func SkeletonOps(sk *circuit.Skeleton, m int, ops []circuit.MappedOp, initial, final perm.Mapping) error {
	if m > 64 {
		return fmt.Errorf("verify: GF(2) check limited to 64 physical qubits")
	}
	// Physical net map: a switched CNOT op surrounded by 4 H gates still
	// implements the logical CNOT with control on the qubit holding the
	// logical control (paper Fig. 3).
	phys := sim.NewLinearIdentity(m)
	for _, op := range ops {
		if op.Swap {
			phys.ApplySWAP(op.A, op.B)
			continue
		}
		c, t := op.Control, op.Target
		if op.Switched {
			c, t = t, c
		}
		phys.ApplyCNOT(c, t)
	}
	// Logical reference map.
	logical := sim.NewLinearIdentity(sk.NumQubits)
	for _, g := range sk.Gates {
		logical.ApplyCNOT(g.Control, g.Target)
	}
	// Compare: row of phys at final[j] must equal logical row j translated
	// through the initial layout.
	usedIn := make([]bool, m)
	usedOut := make([]bool, m)
	for j := 0; j < sk.NumQubits; j++ {
		usedIn[initial[j]] = true
		usedOut[final[j]] = true
		var want uint64
		for j2 := 0; j2 < sk.NumQubits; j2++ {
			if logical.Rows[j]>>uint(j2)&1 == 1 {
				want |= 1 << uint(initial[j2])
			}
		}
		if got := phys.Rows[final[j]]; got != want {
			return fmt.Errorf("verify: GF(2) mismatch for logical q%d: row %b, want %b", j, got, want)
		}
	}
	// Unused outputs must be single unused input bits, pairwise distinct.
	seen := make(map[uint64]bool)
	for i := 0; i < m; i++ {
		if usedOut[i] {
			continue
		}
		row := phys.Rows[i]
		if row == 0 || row&(row-1) != 0 {
			return fmt.Errorf("verify: unused physical qubit %d has non-trivial row %b", i, row)
		}
		bit := 0
		for row>>uint(bit)&1 == 0 {
			bit++
		}
		if usedIn[bit] {
			return fmt.Errorf("verify: unused output %d reads used input %d", i, bit)
		}
		if seen[row] {
			return fmt.Errorf("verify: unused input read twice")
		}
		seen[row] = true
	}
	return nil
}

// maxBatchAmps caps the amplitudes Equivalent simulates at once: the
// basis states of the logical qubits are evolved together in batches of
// up to maxBatchAmps / 2^m, so the ≤ 5-qubit devices of the paper's
// evaluation check every basis state in one pass while a 12-qubit check
// holds at most 1 MiB of mapped amplitudes.
const maxBatchAmps = 1 << 16

// Equivalent performs full unitary equivalence checking by basis-state
// simulation: for every computational basis state of the logical qubits,
// the mapped circuit (over the architecture's physical qubits, starting
// from the layout-translated basis state) must produce the same state as
// the original, relocated by the final layout, up to one uniform global
// phase. Unused physical qubits must start and end in |0⟩. The basis
// states are simulated as one batch (sim.Batch), so each gate is validated
// and prepared once per circuit rather than once per basis state; the
// first failing basis state, in index order, is reported.
//
// Cost is O(2^n · 2^m) amplitudes; intended for the ≤ 5-qubit circuits and
// devices of the paper's evaluation (hard limit sim.MaxQubits).
func Equivalent(original, mapped *circuit.Circuit, m int, initial, final perm.Mapping) error {
	n := original.NumQubits()
	if m > sim.MaxQubits {
		return fmt.Errorf("verify: %d physical qubits exceed simulator limit %d", m, sim.MaxQubits)
	}
	if len(initial) != n || len(final) != n {
		return fmt.Errorf("verify: layout sizes %d/%d for %d qubits", len(initial), len(final), n)
	}
	const eps = 1e-9
	var phase complex128
	batch := max(1, maxBatchAmps>>uint(m))
	exp := make([]complex128, 1<<uint(m))
	for lo := 0; lo < 1<<uint(n); lo += batch {
		hi := min(lo+batch, 1<<uint(n))
		basis, placed := make([]int, 0, hi-lo), make([]int, 0, hi-lo)
		for b := lo; b < hi; b++ {
			basis = append(basis, b)
			placed = append(placed, relocate(b, initial))
		}
		orig := sim.NewBasisBatch(n, basis)
		if err := orig.Run(original); err != nil {
			return fmt.Errorf("verify: simulating original: %w", err)
		}
		mapStates := sim.NewBasisBatch(m, placed)
		if err := mapStates.Run(mapped); err != nil {
			return fmt.Errorf("verify: simulating mapped: %w", err)
		}
		for b := lo; b < hi; b++ {
			c := b - lo
			// The expected state: original amplitudes relocated through
			// the final layout, unused qubits |0⟩.
			clear(exp)
			for x := 0; x < 1<<uint(n); x++ {
				exp[relocate(x, final)] = orig.Amplitude(c, x)
			}
			var ip complex128
			for y, want := range exp {
				ip += cmplx.Conj(want) * mapStates.Amplitude(c, y)
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
	}
	return nil
}

// relocate maps a basis index over the logical qubits to the physical
// basis index under layout: bit j moves to bit layout[j].
func relocate(x int, layout perm.Mapping) int {
	y := 0
	for j, p := range layout {
		if x>>uint(j)&1 == 1 {
			y |= 1 << uint(p)
		}
	}
	return y
}
