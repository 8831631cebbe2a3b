// Package sim provides two circuit simulators used for verification:
// a full state-vector simulator over the library's gate set (exact
// semantics for up to ~12 qubits), and a GF(2) linear-reversible simulator
// for CNOT/SWAP circuits that scales to any size the mapper handles.
//
// The mapped circuits produced by this library are verified against the
// originals through these simulators (internal/verify), so the paper's
// minimality results are established over provably equivalent circuits.
package sim

import (
	"fmt"
	"math"
	"math/cmplx"

	"repro/internal/circuit"
)

// MaxQubits bounds the state-vector simulator's size (2^12 amplitudes).
const MaxQubits = 12

// State is a quantum state over n qubits. Qubit k corresponds to bit k of
// the amplitude index (qubit 0 is the least significant bit).
type State struct {
	n    int
	amps []complex128
}

// NewState returns the all-zeros computational basis state |0…0⟩.
func NewState(n int) *State {
	if n < 1 || n > MaxQubits {
		panic(fmt.Sprintf("sim: %d qubits outside [1,%d]", n, MaxQubits))
	}
	s := &State{n: n, amps: make([]complex128, 1<<uint(n))}
	s.amps[0] = 1
	return s
}

// NewBasisState returns the computational basis state |index⟩.
func NewBasisState(n, index int) *State {
	s := NewState(n)
	if index < 0 || index >= len(s.amps) {
		panic("sim: basis index out of range")
	}
	s.amps[0] = 0
	s.amps[index] = 1
	return s
}

// NumQubits returns the number of qubits.
func (s *State) NumQubits() int { return s.n }

// Amplitude returns the amplitude of basis state |index⟩.
func (s *State) Amplitude(index int) complex128 { return s.amps[index] }

// Copy returns a deep copy of the state.
func (s *State) Copy() *State {
	c := &State{n: s.n, amps: make([]complex128, len(s.amps))}
	copy(c.amps, s.amps)
	return c
}

// uMatrix returns the 2×2 matrix of U(θ,φ,λ) = Rz(φ)Ry(θ)Rz(λ) in the IBM
// convention: [[cos(θ/2), −e^{iλ}·sin(θ/2)], [e^{iφ}·sin(θ/2),
// e^{i(φ+λ)}·cos(θ/2)]].
func uMatrix(theta, phi, lambda float64) [2][2]complex128 {
	c, sn := math.Cos(theta/2), math.Sin(theta/2)
	return [2][2]complex128{
		{complex(c, 0), -cmplx.Exp(complex(0, lambda)) * complex(sn, 0)},
		{cmplx.Exp(complex(0, phi)) * complex(sn, 0), cmplx.Exp(complex(0, phi+lambda)) * complex(c, 0)},
	}
}

// gateOp is a gate validated against a qubit count and prepared for
// application to amplitude vectors: a single-qubit gate carries its 2×2
// U matrix, computed once.
type gateOp struct {
	kind   circuit.Kind
	qubits []int
	u      [2][2]complex128
}

// prepare validates g for an n-qubit register and prepares it.
func prepare(g circuit.Gate, n int) (gateOp, error) {
	if err := g.Validate(n); err != nil {
		return gateOp{}, err
	}
	switch g.Kind {
	case circuit.KindCNOT, circuit.KindSWAP, circuit.KindMCT:
		return gateOp{kind: g.Kind, qubits: g.Qubits}, nil
	}
	u, ok := g.AsU()
	if !ok {
		return gateOp{}, fmt.Errorf("sim: unsupported gate %s", g)
	}
	return gateOp{kind: circuit.KindU, qubits: u.Qubits, u: uMatrix(u.Theta, u.Phi, u.Lambda)}, nil
}

// apply applies the prepared gate to one amplitude vector.
func (op *gateOp) apply(amps []complex128) {
	q := op.qubits
	switch op.kind {
	case circuit.KindCNOT:
		applyCNOT(amps, q[0], q[1])
	case circuit.KindSWAP:
		applySWAP(amps, q[0], q[1])
	case circuit.KindMCT:
		applyMCT(amps, q[:len(q)-1], q[len(q)-1])
	default:
		applySingle(amps, q[0], op.u)
	}
}

// applySingle applies a 2×2 matrix to qubit q.
func applySingle(amps []complex128, q int, m [2][2]complex128) {
	bit := 1 << uint(q)
	for i := range amps {
		if i&bit != 0 {
			continue
		}
		a0, a1 := amps[i], amps[i|bit]
		amps[i] = m[0][0]*a0 + m[0][1]*a1
		amps[i|bit] = m[1][0]*a0 + m[1][1]*a1
	}
}

// Apply applies one gate to the state.
func (s *State) Apply(g circuit.Gate) error {
	op, err := prepare(g, s.n)
	if err != nil {
		return err
	}
	op.apply(s.amps)
	return nil
}

func applyCNOT(amps []complex128, control, target int) {
	cb, tb := 1<<uint(control), 1<<uint(target)
	for i := range amps {
		if i&cb != 0 && i&tb == 0 {
			amps[i], amps[i|tb] = amps[i|tb], amps[i]
		}
	}
}

func applySWAP(amps []complex128, a, b int) {
	ab, bb := 1<<uint(a), 1<<uint(b)
	for i := range amps {
		if i&ab != 0 && i&bb == 0 {
			j := i&^ab | bb
			amps[i], amps[j] = amps[j], amps[i]
		}
	}
}

func applyMCT(amps []complex128, controls []int, target int) {
	var cmask int
	for _, c := range controls {
		cmask |= 1 << uint(c)
	}
	tb := 1 << uint(target)
	for i := range amps {
		if i&cmask == cmask && i&tb == 0 {
			amps[i], amps[i|tb] = amps[i|tb], amps[i]
		}
	}
}

// Run applies every gate of the circuit in order.
func (s *State) Run(c *circuit.Circuit) error {
	if c.NumQubits() > s.n {
		return fmt.Errorf("sim: circuit needs %d qubits, state has %d", c.NumQubits(), s.n)
	}
	for _, g := range c.Gates() {
		if err := s.Apply(g); err != nil {
			return err
		}
	}
	return nil
}

// Batch is a set of states over the same n qubits evolved together, such
// as the columns of a circuit's unitary. Run validates and prepares each
// gate once for the whole batch, then applies it to every state with the
// arithmetic State.Apply performs on one, so each state ends bit for bit
// where State.Run would take it.
type Batch struct {
	n    int
	dim  int          // 2^n amplitudes per state
	amps []complex128 // state c occupies amps[c·dim : (c+1)·dim]
}

// NewBasisBatch returns one state per index, state c being the
// computational basis state |indices[c]⟩ of n qubits.
func NewBasisBatch(n int, indices []int) *Batch {
	if n < 1 || n > MaxQubits {
		panic(fmt.Sprintf("sim: %d qubits outside [1,%d]", n, MaxQubits))
	}
	b := &Batch{n: n, dim: 1 << uint(n)}
	b.amps = make([]complex128, len(indices)*b.dim)
	for c, idx := range indices {
		if idx < 0 || idx >= b.dim {
			panic("sim: basis index out of range")
		}
		b.amps[c*b.dim+idx] = 1
	}
	return b
}

// Amplitude returns the amplitude of basis state |index⟩ in state c.
func (b *Batch) Amplitude(c, index int) complex128 { return b.amps[c*b.dim+index] }

// Run applies every gate of the circuit, in order, to every state.
func (b *Batch) Run(c *circuit.Circuit) error {
	if c.NumQubits() > b.n {
		return fmt.Errorf("sim: circuit needs %d qubits, state has %d", c.NumQubits(), b.n)
	}
	for _, g := range c.Gates() {
		op, err := prepare(g, b.n)
		if err != nil {
			return err
		}
		for lo := 0; lo < len(b.amps); lo += b.dim {
			op.apply(b.amps[lo : lo+b.dim])
		}
	}
	return nil
}

// InnerProduct returns ⟨s|o⟩.
func (s *State) InnerProduct(o *State) complex128 {
	if s.n != o.n {
		panic("sim: inner product of different sizes")
	}
	var total complex128
	for i, a := range s.amps {
		total += cmplx.Conj(a) * o.amps[i]
	}
	return total
}

// Norm returns the state's 2-norm (should be 1 for valid evolutions).
func (s *State) Norm() float64 {
	total := 0.0
	for _, a := range s.amps {
		total += real(a)*real(a) + imag(a)*imag(a)
	}
	return math.Sqrt(total)
}

// EqualUpToPhase reports whether two states are equal up to a global phase
// within tolerance eps (|⟨s|o⟩| ≥ 1−eps) and returns the phase factor.
func (s *State) EqualUpToPhase(o *State, eps float64) (bool, complex128) {
	ip := s.InnerProduct(o)
	return cmplx.Abs(ip) >= 1-eps, ip
}
