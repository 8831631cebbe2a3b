// Package encoder builds the paper's symbolic formulation of the mapping
// problem (§3.2, Definitions 4–5, Equations 1–5) as a CNF instance.
//
// Mapping variables x^k_ij state that, before CNOT gate k, logical qubit j
// is mapped to physical qubit i. Permutation variables y^k_π select which
// permutation of physical-qubit states is applied before gate k, and
// switching variables z^k record whether gate k's CNOT direction must be
// reversed (at a cost of 4 H gates). The cost function
//
//	F = Σ_k Σ_π 7·swaps(π)·y^k_π + Σ_k 4·z^k          (Eq. 5)
//
// is materialized as a binary adder tree; minimality is obtained by the
// driver in internal/exact via iterative bound tightening.
//
// Consecutive gates between which no permutation is allowed share one
// x-variable frame, so restricting the permutation points G' (paper §4.2)
// directly shrinks the encoding.
package encoder

import (
	"context"
	"fmt"

	"repro/internal/arch"
	"repro/internal/circuit"
	"repro/internal/cnf"
	"repro/internal/perm"
	"repro/internal/sat"
)

// SwapCost and HCost are the paper's cost-model constants: a SWAP
// decomposes into 7 elementary gates, a direction switch into 4 H gates
// (paper §2.2, Fig. 3). They are the default weights of arch.CostModel;
// every cost computed here flows through the model attached to the
// problem's architecture, so a calibration-weighted model changes the
// objective while the paper model reproduces these constants exactly.
const (
	SwapCost = arch.PaperSwapUnit
	HCost    = arch.PaperHUnit
)

// Problem is one mapping instance to encode.
type Problem struct {
	Skeleton *circuit.Skeleton
	Arch     *arch.Arch
	// PermBefore[k] reports whether the mapping may change (a permutation
	// may be inserted) immediately before skeleton gate k. Index 0 is
	// ignored: the initial mapping is free (paper §3.2). A nil slice means
	// permutations are allowed before every gate — the minimality-
	// guaranteeing configuration of §3.
	PermBefore []bool
	// InitialMapping, when non-nil, pins the layout at the very start of
	// the circuit (before any inserted SWAPs) instead of leaving it to the
	// solver — an extension for mapping circuit fragments whose
	// predecessor already placed the qubits. A permutation point is then
	// allowed before the first gate, so the solver may route away from the
	// pin at the usual SWAP cost.
	InitialMapping perm.Mapping
}

// Encoding is the CNF materialization of a Problem.
type Encoding struct {
	B *cnf.Builder

	prob   Problem
	cm     *arch.CostModel // cost model (nil = paper 7/4)
	perms  []perm.Perm     // Π, indexed as in Y
	permSw []int           // SWAP count of the chosen realization of π
	permW  []int           // weighted cost of π (SwapCost·permSw when uniform)
	// gateRev[k][p] is the "gate k sits reversed on coupling pair p" literal
	// (aligned with Arch.Pairs()), kept for per-pair H-weight cost terms.
	gateRev [][]sat.Lit

	// frames[f] = index of the first skeleton gate of frame f; gates of
	// frame f are [frames[f], frames[f+1]) (last frame ends at |G|).
	frames []int
	// gateFrame[k] = frame index of skeleton gate k.
	gateFrame []int

	// X[f][i][j]: in frame f, logical qubit j sits on physical qubit i.
	X [][][]sat.Lit
	// Y[t][p]: permutation p (index into perms) is applied at permutation
	// point t, which sits between frames t and t+1.
	Y [][]sat.Lit
	// Z[k]: skeleton gate k is executed with switched direction.
	Z []sat.Lit

	// CostBits is the binary value of F.
	CostBits cnf.BitVec
	// MaxCost is the largest value F can take in this encoding.
	MaxCost int

	// costGuards memoizes the activation literal per bound handed out by
	// CostAtMostLit, so repeated probes of the same bound reuse both the
	// guard variable and its clauses; guardBounds is the reverse index, so
	// an unsat core over guard assumptions can be mapped back to the bounds
	// it refutes (GuardBound).
	costGuards  map[int]sat.Lit
	guardBounds map[sat.Lit]int
}

// Encode builds the CNF instance for the problem on the given builder. The
// context is checked between construction phases and while the permutation
// links — the dominant share of the clauses — are generated, so encoding a
// large instance under an already-expired deadline aborts promptly with
// ctx.Err().
func Encode(ctx context.Context, p Problem, b *cnf.Builder) (*Encoding, error) {
	n := p.Skeleton.NumQubits
	m := p.Arch.NumQubits()
	if n > m {
		return nil, fmt.Errorf("encoder: circuit has %d logical qubits but %s has only %d physical", n, p.Arch, m)
	}
	if n == 0 || p.Skeleton.Len() == 0 {
		return nil, fmt.Errorf("encoder: empty problem (n=%d, gates=%d)", n, p.Skeleton.Len())
	}
	if p.PermBefore != nil && len(p.PermBefore) != p.Skeleton.Len() {
		return nil, fmt.Errorf("encoder: PermBefore has %d entries for %d gates", len(p.PermBefore), p.Skeleton.Len())
	}
	if m > 6 {
		return nil, fmt.Errorf("encoder: exhaustive permutation enumeration infeasible for m=%d physical qubits; restrict to a subset first (paper §4.1)", m)
	}
	if p.InitialMapping != nil && (len(p.InitialMapping) != n || !p.InitialMapping.Valid(m)) {
		return nil, fmt.Errorf("encoder: invalid initial mapping %v for n=%d, m=%d", p.InitialMapping, n, m)
	}

	e := &Encoding{B: b, prob: p, cm: p.Arch.Cost()}
	e.perms = perm.All(m)
	e.permSw, e.permW = permCosts(p.Arch, e.perms)

	e.buildFrames()
	e.buildMappingVars()
	e.pinInitialMapping()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	e.buildGateConstraints()
	if err := e.buildPermutationLinks(ctx); err != nil {
		return nil, err
	}
	e.buildCost()
	return e, nil
}

// permCosts returns, for each permutation π of a's physical qubits, the
// SWAP count of its cheapest realization on a's coupling graph and its
// cost under a's cost model: swaps(π) times the SWAP unit when the model's
// SWAP weights are uniform, the weighted distance swaps_w(π) otherwise
// (−1 for both when π is unrealizable). All of them come from one swap
// search started at the identity.
func permCosts(a *arch.Arch, perms []perm.Perm) (sw, w []int) {
	m := a.NumQubits()
	cm := a.Cost()
	var weight func(perm.Edge) int
	if !cm.UniformSwap() {
		weight = cm.EdgeSwapWeight
	}
	id := perm.NewSwapGraph(perm.NewSpace(m, m), a.UndirectedEdges(), weight).Search(perm.IdentityMapping(m))
	sw, w = make([]int, len(perms)), make([]int, len(perms))
	for i, pp := range perms {
		sw[i], w[i] = id.Swaps(perm.Mapping(pp)), id.Weight(perm.Mapping(pp))
		if weight == nil && w[i] > 0 {
			w[i] *= cm.SwapUnit()
		}
	}
	return sw, w
}

// PermAllowed reports whether a permutation may occur before gate k.
// Index 0 always reports false: the initial mapping is free rather than
// produced by a permutation.
func (p Problem) PermAllowed(k int) bool {
	if k == 0 {
		return false // initial mapping is free; no permutation "before" g1
	}
	if p.PermBefore == nil {
		return true
	}
	return p.PermBefore[k]
}

func (e *Encoding) buildFrames() {
	e.gateFrame = make([]int, e.prob.Skeleton.Len())
	if e.prob.InitialMapping != nil {
		// Virtual gate-free frame holding the pinned layout, separated
		// from the first gate's frame by a permutation point.
		e.frames = append(e.frames, -1)
	}
	for k := 0; k < e.prob.Skeleton.Len(); k++ {
		if k == 0 || e.prob.PermAllowed(k) {
			e.frames = append(e.frames, k)
		}
		e.gateFrame[k] = len(e.frames) - 1
	}
}

// NumFrames returns the number of distinct x-variable frames.
func (e *Encoding) NumFrames() int { return len(e.frames) }

// NumPermPoints returns |G'| + 0: the number of places a permutation may be
// inserted (paper column |G'|; one per frame boundary).
func (e *Encoding) NumPermPoints() int { return len(e.frames) - 1 }

func (e *Encoding) buildMappingVars() {
	n := e.prob.Skeleton.NumQubits
	m := e.prob.Arch.NumQubits()
	e.X = make([][][]sat.Lit, len(e.frames))
	for f := range e.X {
		e.X[f] = make([][]sat.Lit, m)
		for i := 0; i < m; i++ {
			e.X[f][i] = make([]sat.Lit, n)
			for j := 0; j < n; j++ {
				e.X[f][i][j] = e.B.NewLit()
			}
		}
		// Eq. (1): each logical qubit on exactly one physical qubit...
		for j := 0; j < n; j++ {
			col := make([]sat.Lit, m)
			for i := 0; i < m; i++ {
				col[i] = e.X[f][i][j]
			}
			e.B.ExactlyOne(col...)
		}
		// ...and each physical qubit holds at most one logical qubit.
		for i := 0; i < m; i++ {
			e.B.AtMostOne(e.X[f][i]...)
		}
	}
}

// pinInitialMapping adds unit clauses fixing frame 0 when the problem
// specifies a fixed initial mapping.
func (e *Encoding) pinInitialMapping() {
	if e.prob.InitialMapping == nil {
		return
	}
	for j, i := range e.prob.InitialMapping {
		e.B.AddClause(e.X[0][i][j])
	}
}

// buildGateConstraints adds Eq. (2) (executability) and Eq. (4) (direction
// switching) for every skeleton gate.
func (e *Encoding) buildGateConstraints() {
	e.Z = make([]sat.Lit, e.prob.Skeleton.Len())
	e.gateRev = make([][]sat.Lit, e.prob.Skeleton.Len())
	for k, g := range e.prob.Skeleton.Gates {
		x := e.X[e.gateFrame[k]]
		var fwds, revs []sat.Lit
		for _, pr := range e.prob.Arch.Pairs() {
			// Forward: control on pr.Control, target on pr.Target.
			fwds = append(fwds, e.B.And(x[pr.Control][g.Control], x[pr.Target][g.Target]))
			// Reversed: control/target switched relative to the coupling
			// entry — executable after inserting 4 H gates.
			revs = append(revs, e.B.And(x[pr.Control][g.Target], x[pr.Target][g.Control]))
		}
		fwd := e.B.Or(fwds...)
		rev := e.B.Or(revs...)
		// Eq. (2): some orientation must be executable.
		e.B.AddClause(fwd, rev)
		// Eq. (4): the direction is switched exactly when the forward
		// orientation is not available. (On the antisymmetric IBM coupling
		// maps this is equivalent to the paper's z ↔ rev; for architectures
		// with bidirectional couplings it correctly avoids charging 4 H
		// when the forward direction works.)
		z := e.B.And(rev, fwd.Not())
		e.Z[k] = z
		e.gateRev[k] = revs
	}
}

// buildPermutationLinks adds Eq. (3): the y^k_π selectors and their
// consistency with adjacent x frames. Following footnote 5, the implication
// is left-handed (y → consistency) combined with an exactly-one constraint,
// which also handles n < m, where the permutation on unoccupied physical
// qubits is not determined by the mappings.
func (e *Encoding) buildPermutationLinks(ctx context.Context) error {
	n := e.prob.Skeleton.NumQubits
	m := e.prob.Arch.NumQubits()
	e.Y = make([][]sat.Lit, e.NumPermPoints())
	for t := 0; t < e.NumPermPoints(); t++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		before, after := e.X[t], e.X[t+1]
		ys := make([]sat.Lit, len(e.perms))
		for pi, pp := range e.perms {
			y := e.B.NewLit()
			ys[pi] = y
			if e.permSw[pi] < 0 {
				// Unrealizable permutation (disconnected graph).
				e.B.AddClause(y.Not())
				continue
			}
			// y → (x^{k-1}_ij ↔ x^k_{π(i)j}) for all i, j.
			for i := 0; i < m; i++ {
				for j := 0; j < n; j++ {
					e.B.AddClause(y.Not(), before[i][j].Not(), after[pp[i]][j])
					e.B.AddClause(y.Not(), before[i][j], after[pp[i]][j].Not())
				}
			}
		}
		e.B.ExactlyOne(ys...)
		e.Y[t] = ys
	}
	return nil
}

// buildCost assembles Eq. (5) as a bit vector, generalized to the cost
// model: each permutation selector contributes its (possibly weighted)
// realization cost, each switched gate its direction-switch weight. Under
// the paper model this is exactly 7·swaps(π) per selector and 4 per
// switch, producing the identical CNF as before the model existed.
func (e *Encoding) buildCost() {
	maxSwap := 0
	costs := make([]int, len(e.perms))
	for pi, w := range e.permW {
		if w > 0 {
			costs[pi] = w
			if w > maxSwap {
				maxSwap = w
			}
		}
	}
	uniformH := e.cm.UniformH()
	maxH := e.cm.HUnit()
	if !uniformH {
		maxH = e.cm.MaxHWeight(e.prob.Arch.Pairs())
	}
	e.MaxCost = e.NumPermPoints()*maxSwap + len(e.Z)*maxH
	width := cnf.Width(e.MaxCost)

	var vecs []cnf.BitVec
	for _, ys := range e.Y {
		vecs = append(vecs, e.B.SelectConst(ys, costs, width))
	}
	for k, z := range e.Z {
		if uniformH {
			vecs = append(vecs, e.B.ScaleByLit(z, e.cm.HUnit(), width))
		} else {
			vecs = append(vecs, e.gateHCostVec(k, width))
		}
	}
	e.CostBits = e.B.SumVecs(vecs)
}

// gateHCostVec builds the switch-cost vector of gate k under per-pair H
// weights: the gate's logical pair occupies exactly one coupling pair, and
// at most one of the gateRev literals is true (the mapping is injective),
// so conditioned on Z[k] the vector selects the hosting pair's weight —
// a per-gate SelectConst over z∧rev_p terms.
func (e *Encoding) gateHCostVec(k, width int) cnf.BitVec {
	pairs := e.prob.Arch.Pairs()
	zrev := make([]sat.Lit, len(pairs))
	weights := make([]int, len(pairs))
	for p, pr := range pairs {
		zrev[p] = e.B.And(e.Z[k], e.gateRev[k][p])
		weights[p] = e.cm.HWeight(pr.Control, pr.Target)
	}
	return e.B.SelectConst(zrev, weights, width)
}

// AssertCostAtMost permanently adds the constraint F ≤ bound. Successive
// calls must use non-increasing bounds (a permanently tightened instance
// cannot be relaxed). The incremental minimization driver uses
// CostAtMostLit instead, which leaves the instance reusable.
func (e *Encoding) AssertCostAtMost(bound int) {
	e.B.AssertLessEqConst(e.CostBits, bound)
}

// CostAtMostLit returns an activation literal g encoding g → (F ≤ bound).
// Passing g as a Solve assumption enforces the bound for that call only:
// an UNSAT probe does not poison the instance, and learnt clauses survive
// across probes of different bounds — the incremental §3.3 descent in
// internal/exact drives every probe through these guards on one solver.
// Guards are memoized per bound. A bound ≥ MaxCost is vacuous and returns
// the constant-true literal.
func (e *Encoding) CostAtMostLit(bound int) sat.Lit {
	if bound >= e.MaxCost {
		return e.B.True()
	}
	if g, ok := e.costGuards[bound]; ok {
		return g
	}
	g := e.B.LessEqConstGuard(e.CostBits, bound)
	if e.costGuards == nil {
		e.costGuards = make(map[int]sat.Lit)
		e.guardBounds = make(map[sat.Lit]int)
	}
	e.costGuards[bound] = g
	e.guardBounds[g] = bound
	return g
}

// GuardBound maps a guard literal minted by CostAtMostLit back to the bound
// it activates. The incremental descent uses it to translate an unsat core
// over guard assumptions into the tightest cost bound the conflict actually
// refuted. Non-guard literals (including the vacuous constant-true literal
// returned for bounds ≥ MaxCost) report false.
func (e *Encoding) GuardBound(g sat.Lit) (int, bool) {
	b, ok := e.guardBounds[g]
	return b, ok
}
