// The §4.1 subset optimization enumerates every connected n-qubit subset of
// the architecture. Encoding each subset as its own CNF instance discards
// learnt clauses, unsat cores and bound guards at every subset boundary;
// this file instead encodes ALL subsets into ONE instance. Every subset's
// restricted architecture acts on the same n "slot" indices (a connected
// n-subset renumbered 0..n−1), so the mapping variables X, the permutation
// selectors Y with their frame-link consistency clauses, the switch
// variables Z, and the whole cost adder tree are shared verbatim; only the
// coupling-map-dependent constraints differ per subset, and those are
// guarded by a fresh selector literal s_i (cnf.Builder.AddGuardedClause).
// Assuming s_i activates subset i's gate-executability, direction-switch and
// permutation-cost semantics for that call only — learnt clauses and cost
// bounds transfer across subsets, and an unsat core over {selector, bound}
// assumptions refutes whole families of subsets at once.
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

// SubsetProblem is a family of mapping instances sharing one skeleton and
// permutation-point strategy, differing only in the (restricted)
// architecture. All architectures must have exactly Skeleton.NumQubits
// physical qubits — the §4.1 slot space.
type SubsetProblem struct {
	Skeleton *circuit.Skeleton
	// PermBefore has Problem.PermBefore's semantics (strategy restriction);
	// it is architecture-independent and therefore shared by all subsets.
	PermBefore []bool
	// Archs holds one restricted architecture per subset (arch.Restrict of
	// a connected n-subset).
	Archs []*arch.Arch
}

// PermAllowed mirrors Problem.PermAllowed for the shared frame layout.
func (p SubsetProblem) PermAllowed(k int) bool {
	return Problem{Skeleton: p.Skeleton, PermBefore: p.PermBefore}.PermAllowed(k)
}

// MultiEncoding is the CNF materialization of a SubsetProblem: one shared
// instance carrying every subset behind selector assumptions.
type MultiEncoding struct {
	B *cnf.Builder

	prob  SubsetProblem
	perms []perm.Perm // Π over the n slots, shared by all subsets
	// permSw[i][pi] = SWAP count of permutation pi's chosen realization on
	// subset i's coupling graph (−1 when unrealizable there); permW[i][pi]
	// its cost under subset i's cost model (SwapCost·permSw when uniform).
	permSw [][]int
	permW  [][]int
	// cms[i] is subset i's cost model; uniformH reports whether every
	// subset charges the same constant per direction switch, in which case
	// the H cost terms are shared unguarded exactly as in the paper model.
	cms      []*arch.CostModel
	uniformH bool
	hUnit    int

	frames    []int
	gateFrame []int

	// X, Y, Z as in Encoding, over the n×n slot space. The Eq. 1 mapping
	// constraints and the Eq. 3 permutation-consistency links are pure
	// index bookkeeping, independent of any coupling map, so they are
	// shared unguarded. Z is a vector of free variables whose meaning is
	// fixed per subset by guarded equivalences.
	X [][][]sat.Lit
	Y [][]sat.Lit
	Z []sat.Lit

	// Selectors[i] activates subset i's guarded constraints.
	Selectors []sat.Lit
	selSubset map[sat.Lit]int

	// C[t] is the shared per-permutation-point swap-cost vector: free bits
	// linked per subset by s_i → (C[t][j] ↔ ⋁ y's whose 7·swaps_i(π) has
	// bit j). The adder tree over C and Z is built once, so every cost
	// bound guard (CostAtMostLit) is shared by all subsets — a bound
	// refuted under one selector seeds the conflict analysis for the next.
	C []cnf.BitVec
	// HV[k] is the free per-gate switch-cost vector, allocated only when
	// some subset carries per-pair H weights (otherwise the shared
	// ScaleByLit(Z[k], hUnit) terms suffice). Linked per subset like C.
	HV []cnf.BitVec

	CostBits cnf.BitVec
	MaxCost  int

	costGuards  map[int]sat.Lit
	guardBounds map[sat.Lit]int
}

// EncodeSubsets builds the shared instance. The context is checked between
// subsets and permutation points, so encoding a large family under an
// expired deadline aborts promptly.
func EncodeSubsets(ctx context.Context, p SubsetProblem, b *cnf.Builder) (*MultiEncoding, error) {
	n := p.Skeleton.NumQubits
	if n == 0 || p.Skeleton.Len() == 0 {
		return nil, fmt.Errorf("encoder: empty problem (n=%d, gates=%d)", n, p.Skeleton.Len())
	}
	if len(p.Archs) == 0 {
		return nil, fmt.Errorf("encoder: no subset architectures to encode")
	}
	if p.PermBefore != nil && len(p.PermBefore) != p.Skeleton.Len() {
		return nil, fmt.Errorf("encoder: PermBefore has %d entries for %d gates", len(p.PermBefore), p.Skeleton.Len())
	}
	if n > 6 {
		return nil, fmt.Errorf("encoder: exhaustive permutation enumeration infeasible for n=%d qubits (paper §4.1 subsets must stay ≤ 6)", n)
	}
	for i, a := range p.Archs {
		if a.NumQubits() != n {
			return nil, fmt.Errorf("encoder: subset %d has %d physical qubits, want exactly n=%d", i, a.NumQubits(), n)
		}
	}

	e := &MultiEncoding{B: b, prob: p}
	e.perms = perm.All(n)
	e.permSw = make([][]int, len(p.Archs))
	e.permW = make([][]int, len(p.Archs))
	e.cms = make([]*arch.CostModel, len(p.Archs))
	e.uniformH = true
	e.hUnit = p.Archs[0].Cost().HUnit()
	for i, a := range p.Archs {
		cm := a.Cost()
		e.cms[i] = cm
		if !cm.UniformH() || cm.HUnit() != e.hUnit {
			e.uniformH = false
		}
		e.permSw[i], e.permW[i] = permCosts(a, e.perms)
	}

	e.buildFrames()
	e.buildMappingVars()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := e.buildPermutationLinks(ctx); err != nil {
		return nil, err
	}
	e.Z = make([]sat.Lit, p.Skeleton.Len())
	for k := range e.Z {
		e.Z[k] = b.NewLit()
	}
	e.Selectors = make([]sat.Lit, len(p.Archs))
	e.selSubset = make(map[sat.Lit]int, len(p.Archs))
	for i := range p.Archs {
		s := b.NewLit()
		e.Selectors[i] = s
		e.selSubset[s] = i
	}
	e.buildSharedCost()
	for i := range p.Archs {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		e.buildSubsetConstraints(i)
	}
	return e, nil
}

func (e *MultiEncoding) buildFrames() {
	e.gateFrame = make([]int, e.prob.Skeleton.Len())
	for k := 0; k < e.prob.Skeleton.Len(); k++ {
		if k == 0 || e.prob.PermAllowed(k) {
			e.frames = append(e.frames, k)
		}
		e.gateFrame[k] = len(e.frames) - 1
	}
}

// NumFrames returns the number of distinct x-variable frames.
func (e *MultiEncoding) NumFrames() int { return len(e.frames) }

// NumPermPoints returns |G'|, shared by every subset (the strategy is
// architecture-independent).
func (e *MultiEncoding) NumPermPoints() int { return len(e.frames) - 1 }

// NumSubsets returns the number of encoded subsets.
func (e *MultiEncoding) NumSubsets() int { return len(e.prob.Archs) }

// Selector returns subset i's activation literal.
func (e *MultiEncoding) Selector(i int) sat.Lit { return e.Selectors[i] }

// SelectorSubset maps a selector literal back to its subset index — the
// inverse of Selector, used to read unsat cores over selector assumptions.
func (e *MultiEncoding) SelectorSubset(l sat.Lit) (int, bool) {
	i, ok := e.selSubset[l]
	return i, ok
}

// TrueSelector returns the lowest-indexed subset whose selector is true in
// the current model (after a Sat result). When the driver assumes a family
// guard r → (s_a ∨ s_b ∨ …), the model commits to at least one subset; ties
// (several selectors true at once) resolve to the smallest index, which is
// deterministic for the single-threaded solver.
func (e *MultiEncoding) TrueSelector() (int, bool) {
	for i, s := range e.Selectors {
		if e.litTrue(s) {
			return i, true
		}
	}
	return -1, false
}

// buildMappingVars adds the shared Eq. 1 constraints over the n slots; with
// n logical qubits on n slots every frame mapping is a bijection.
func (e *MultiEncoding) buildMappingVars() {
	n := e.prob.Skeleton.NumQubits
	e.X = make([][][]sat.Lit, len(e.frames))
	for f := range e.X {
		e.X[f] = make([][]sat.Lit, n)
		for i := 0; i < n; i++ {
			e.X[f][i] = make([]sat.Lit, n)
			for j := 0; j < n; j++ {
				e.X[f][i][j] = e.B.NewLit()
			}
		}
		for j := 0; j < n; j++ {
			col := make([]sat.Lit, n)
			for i := 0; i < n; i++ {
				col[i] = e.X[f][i][j]
			}
			e.B.ExactlyOne(col...)
		}
		for i := 0; i < n; i++ {
			e.B.AtMostOne(e.X[f][i]...)
		}
	}
}

// buildPermutationLinks adds the shared Eq. 3 selectors and consistency
// links. Which permutations are REALIZABLE differs per subset and is
// asserted in buildSubsetConstraints; the y → (x ↔ x′) transport clauses
// are pure permutation semantics and shared.
func (e *MultiEncoding) buildPermutationLinks(ctx context.Context) error {
	n := e.prob.Skeleton.NumQubits
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
			for i := 0; i < n; i++ {
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

// buildSharedCost allocates the free per-point cost vectors C[t] and the
// Eq. 5 adder tree over them — ONCE for every subset. MaxCost covers the
// most expensive subset so a single bit width fits all.
func (e *MultiEncoding) buildSharedCost() {
	maxSwap := 0
	for _, ws := range e.permW {
		for _, w := range ws {
			if w > maxSwap {
				maxSwap = w
			}
		}
	}
	maxH := e.hUnit
	if !e.uniformH {
		maxH = 0
		for i, a := range e.prob.Archs {
			if h := e.cms[i].MaxHWeight(a.Pairs()); h > maxH {
				maxH = h
			}
		}
	}
	e.MaxCost = e.NumPermPoints()*maxSwap + len(e.Z)*maxH
	width := cnf.Width(e.MaxCost)

	var vecs []cnf.BitVec
	e.C = make([]cnf.BitVec, e.NumPermPoints())
	for t := range e.C {
		v := make(cnf.BitVec, width)
		for j := range v {
			v[j] = e.B.NewLit()
		}
		e.C[t] = v
		vecs = append(vecs, v)
	}
	if e.uniformH {
		for _, z := range e.Z {
			vecs = append(vecs, e.B.ScaleByLit(z, e.hUnit, width))
		}
	} else {
		// Per-pair H weights: the switch cost of a gate depends on which
		// coupling pair hosts it, which only subset i's constraints know —
		// so allocate free per-gate vectors and link them per subset.
		e.HV = make([]cnf.BitVec, len(e.Z))
		for k := range e.Z {
			v := make(cnf.BitVec, width)
			for j := range v {
				v[j] = e.B.NewLit()
			}
			e.HV[k] = v
			vecs = append(vecs, v)
		}
	}
	e.CostBits = e.B.SumVecs(vecs)
}

// buildSubsetConstraints emits subset i's coupling-map-dependent semantics,
// every clause guarded by the selector s_i:
//
//   - Eq. 2 executability and Eq. 4 direction switching on subset i's
//     coupling pairs (the fwd/rev Tseitin definitions are unguarded — they
//     merely name conjunctions — while the assertions tying them to the
//     shared Z are guarded);
//   - ¬y for permutations unrealizable on subset i's graph;
//   - the links fixing the shared cost bits C[t] to 7·swaps_i(π) of the
//     selected permutation.
func (e *MultiEncoding) buildSubsetConstraints(i int) {
	s := e.Selectors[i]
	a := e.prob.Archs[i]
	cm := e.cms[i]

	for k, g := range e.prob.Skeleton.Gates {
		x := e.X[e.gateFrame[k]]
		var fwds, revs []sat.Lit
		for _, pr := range a.Pairs() {
			fwds = append(fwds, e.B.And(x[pr.Control][g.Control], x[pr.Target][g.Target]))
			revs = append(revs, e.B.And(x[pr.Control][g.Target], x[pr.Target][g.Control]))
		}
		fwd := e.B.Or(fwds...)
		rev := e.B.Or(revs...)
		e.B.AddGuardedClause(s, fwd, rev)
		e.B.GuardedEquiv(s, e.Z[k], e.B.And(rev, fwd.Not()))
		if e.HV != nil {
			// Link gate k's free switch-cost vector under s: at most one
			// rev literal is true (the mapping is injective), so z∧rev_p
			// selects the hosting pair's H weight, as in gateHCostVec.
			pairs := a.Pairs()
			zrev := make([]sat.Lit, len(pairs))
			for p := range pairs {
				zrev[p] = e.B.And(e.Z[k], revs[p])
			}
			for j := 0; j < len(e.HV[k]); j++ {
				var ons []sat.Lit
				for p, pr := range pairs {
					if cm.HWeight(pr.Control, pr.Target)>>uint(j)&1 == 1 {
						ons = append(ons, zrev[p])
					}
				}
				e.B.GuardedEquiv(s, e.HV[k][j], e.B.Or(ons...))
			}
		}
	}

	costs := make([]int, len(e.perms))
	for pi, w := range e.permW[i] {
		if w > 0 {
			costs[pi] = w // unrealizable (−1) perms are forced ¬y below
		}
	}
	for t, ys := range e.Y {
		for pi := range e.perms {
			if e.permSw[i][pi] < 0 {
				e.B.AddGuardedClause(s, ys[pi].Not())
			}
		}
		// Guarded SelectConst: bit j of C[t] ↔ some y with bit j set in
		// its cost, under s. The Or gates are unguarded definitions.
		for j := 0; j < len(e.C[t]); j++ {
			var ons []sat.Lit
			for pi, c := range costs {
				if c>>uint(j)&1 == 1 {
					ons = append(ons, ys[pi])
				}
			}
			e.B.GuardedEquiv(s, e.C[t][j], e.B.Or(ons...))
		}
	}
}

// CostAtMostLit returns the shared activation literal for g → (F ≤ bound),
// memoized per bound exactly as Encoding.CostAtMostLit. Because the cost
// tree is shared, the same guard (and everything learnt while probing it)
// serves every subset.
func (e *MultiEncoding) CostAtMostLit(bound int) sat.Lit {
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

// GuardBound maps a cost guard back to its bound (see Encoding.GuardBound).
func (e *MultiEncoding) GuardBound(g sat.Lit) (int, bool) {
	b, ok := e.guardBounds[g]
	return b, ok
}

// DecodeSubset reads the solver model into a Solution interpreted on subset
// i's architecture. It must only be called after Sat, and only for a subset
// whose selector was true in the model (assumed or decided) — otherwise the
// guarded semantics the decoder validates were never active.
func (e *MultiEncoding) DecodeSubset(i int) (*Solution, error) {
	if !e.litTrue(e.Selectors[i]) {
		return nil, fmt.Errorf("encoder: subset %d's selector is false in the model", i)
	}
	n := e.prob.Skeleton.NumQubits
	a := e.prob.Archs[i]
	sol := &Solution{GateFrame: append([]int(nil), e.gateFrame...)}

	for f := range e.X {
		mp := make(perm.Mapping, n)
		for j := 0; j < n; j++ {
			mp[j] = -1
			for slot := 0; slot < n; slot++ {
				if e.litTrue(e.X[f][slot][j]) {
					if mp[j] != -1 {
						return nil, fmt.Errorf("encoder: frame %d maps q%d twice", f, j)
					}
					mp[j] = slot
				}
			}
			if mp[j] == -1 {
				return nil, fmt.Errorf("encoder: frame %d leaves q%d unmapped", f, j)
			}
		}
		if !mp.Valid(n) {
			return nil, fmt.Errorf("encoder: frame %d mapping %v not injective", f, mp)
		}
		sol.FrameMappings = append(sol.FrameMappings, mp)
	}

	cost := 0
	for t, ys := range e.Y {
		chosen := -1
		for pi, y := range ys {
			if e.litTrue(y) {
				if chosen != -1 {
					return nil, fmt.Errorf("encoder: perm point %d selects two permutations", t)
				}
				chosen = pi
			}
		}
		if chosen == -1 {
			return nil, fmt.Errorf("encoder: perm point %d selects no permutation", t)
		}
		if e.permSw[i][chosen] < 0 {
			return nil, fmt.Errorf("encoder: perm point %d selects a permutation unrealizable on subset %d", t, i)
		}
		pp := e.perms[chosen]
		if got := sol.FrameMappings[t].ApplyPerm(pp); !got.Equal(sol.FrameMappings[t+1]) {
			return nil, fmt.Errorf("encoder: perm point %d: π%v maps %v to %v, frame has %v",
				t, pp, sol.FrameMappings[t], got, sol.FrameMappings[t+1])
		}
		sol.Perms = append(sol.Perms, pp.Copy())
		sol.PermSwaps = append(sol.PermSwaps, e.permSw[i][chosen])
		cost += e.permW[i][chosen]
	}

	for k := range e.Z {
		sw := e.litTrue(e.Z[k])
		sol.Switched = append(sol.Switched, sw)
		g := e.prob.Skeleton.Gates[k]
		mp := sol.MappingBeforeGate(k)
		pc, pt := mp[g.Control], mp[g.Target]
		if sw {
			cost += e.cms[i].HWeight(pt, pc)
			if !a.Allows(pt, pc) {
				return nil, fmt.Errorf("encoder: gate %d switched but (%d,%d) not in subset %d's CM", k, pt, pc, i)
			}
		} else if !a.Allows(pc, pt) {
			return nil, fmt.Errorf("encoder: gate %d forward but (%d,%d) not in subset %d's CM", k, pc, pt, i)
		}
	}

	sol.Cost = cost
	if fromBits := e.B.Value(e.CostBits); fromBits != cost {
		return nil, fmt.Errorf("encoder: cost bits say %d, subset %d recomputed %d", fromBits, i, cost)
	}
	return sol, nil
}

func (e *MultiEncoding) litTrue(l sat.Lit) bool {
	v := e.B.S.Value(l.Var())
	if !l.IsPos() {
		v = !v
	}
	return v
}
