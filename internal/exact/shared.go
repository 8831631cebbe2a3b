package exact

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/internal/arch"
	"repro/internal/circuit"
	"repro/internal/cnf"
	"repro/internal/encoder"
	"repro/internal/sat"
)

// subsetInstance is one orbit representative in the shared §4.1 fan-out.
type subsetInstance struct {
	sub  *arch.Arch // restricted architecture (n qubits, slot indices)
	back []int      // slot index → original physical qubit
	lb   int        // admissible lower bound on F for this subset
}

// solveSubsetsShared runs the §4.1 physical-qubit subset optimization on ONE
// shared incremental SAT instance instead of one encode+solver per subset.
//
// The connected n-subsets are first bucketed into coupling-graph
// automorphism orbits (arch.SubsetOrbits): subsets related by a symmetry of
// the directed coupling map have identical optimal cost, so only one
// representative per orbit is encoded and the proof transfers to the members
// (Result.OrbitHits). Every representative's architecture-dependent
// constraints enter the instance guarded by a fresh selector literal s_i
// (encoder.EncodeSubsets); the mapping variables, permutation links and the
// whole cost adder tree are shared, so learnt clauses and cost-bound guards
// carry across subsets.
//
// The descent then treats the representatives as ONE minimization problem,
// a family for descend: each probe assumes a family guard r → (s_a ∨ s_b ∨ …)
// over the subsets still able to beat the incumbent, plus the usual
// cost-bound guards. A SAT answer is a model on whichever subset the solver
// chose — a new incumbent that immediately retires every representative
// whose admissible lower bound says it cannot do better
// (Result.SubsetsPruned). An UNSAT answer refutes the bound for the WHOLE
// pending family in one conflict analysis (Result.CoreFamilyRefutations),
// and the unsat core still names the loosest refuted bound for multi-bound
// jumps. The last model standing is the §4.1 optimum, with minimality proven
// for every subset: probed families by UNSAT, retired ones by their
// admissible bounds, orbit members by symmetry.
//
// Parallel widens the clause-sharing portfolio (sat.Pool) over the one
// instance, i.e. bound-probe parallelism, clamped into the ThreadBudget.
func solveSubsetsShared(ctx context.Context, sk *circuit.Skeleton, a *arch.Arch, pb []bool, opts Options) (out *Result, err error) {
	// One recover boundary for the whole shared fan-out: an encoder or
	// descent bug fails this solve with an error instead of propagating.
	defer func() {
		if r := recover(); r != nil {
			out, err = nil, fmt.Errorf("exact: shared subset fan-out panic: %v", r)
		}
	}()
	start := time.Now()
	n := sk.NumQubits
	subsets := a.ConnectedSubsets(n)
	if len(subsets) == 0 {
		return nil, fmt.Errorf("exact: %w: no connected subset of %d qubits in %s", ErrUnsatisfiable, n, a)
	}

	orbits := arch.SubsetOrbits(subsets, a.Automorphisms(0))
	fam := &subsetFamily{
		insts:  make([]*subsetInstance, len(orbits)),
		pruned: make([]bool, len(orbits)),
		guards: make(map[string]sat.Lit),
	}
	archs := make([]*arch.Arch, len(orbits))
	minLb := 0
	for i, orbit := range orbits {
		sub, back := a.Restrict(subsets[orbit[0]])
		lb := opts.SAT.lowerBound(encoder.Problem{Skeleton: sk, Arch: sub, PermBefore: pb})
		if i == 0 || lb < minLb {
			minLb = lb
		}
		fam.insts[i] = &subsetInstance{sub: sub, back: back, lb: lb}
		archs[i] = sub
	}

	solver := sat.New(sat.Options{MaxConflicts: opts.SAT.MaxConflicts})
	fam.MultiEncoding, err = encoder.EncodeSubsets(ctx, encoder.SubsetProblem{Skeleton: sk, PermBefore: pb, Archs: archs}, cnf.NewBuilder(solver))
	if err != nil {
		if ctxErr := ctx.Err(); ctxErr != nil {
			return nil, fmt.Errorf("exact: solve canceled: %w", ctxErr)
		}
		return nil, err
	}

	// Parallel means bound-probe parallelism here: one shared instance,
	// portfolio width from the thread budget (the fan-out itself is a
	// single lane).
	threads := opts.SAT.Threads
	if opts.Parallel && threads <= 1 {
		threads = runtime.GOMAXPROCS(0)
	}
	res := &Result{
		WorkArch:   a,
		PermPoints: fam.NumPermPoints(),
		Engine:     EngineSAT.String(),
		Counters:   Counters{SATEncodes: 1, LowerBound: minLb, OrbitHits: len(subsets) - len(orbits)},
	}
	best, bestIdx, err := runDescent(ctx, solver, fam, res, opts.SAT, threads, minLb-1)
	if err != nil {
		return res, err
	}
	if best == nil {
		return res, fmt.Errorf("exact: %w on any connected %d-subset of %s", ErrUnsatisfiable, n, a)
	}
	res.Solution = best
	res.Cost = best.Cost
	res.WorkArch = fam.insts[bestIdx].sub
	res.SubsetBack = fam.insts[bestIdx].back
	res.Runtime = time.Since(start)
	return res, nil
}

// subsetFamily is the shared §4.1 instance as a descent family: one member
// per orbit representative, selected by its selector literal.
type subsetFamily struct {
	*encoder.MultiEncoding
	insts  []*subsetInstance
	pruned []bool
	// guards memoizes the guard literal per pending-subset family, so
	// re-probing the same family (common: consecutive bounds between
	// incumbent changes) reuses the guard and everything learnt under it.
	guards map[string]sat.Lit
}

// pendingFor returns the indices of representatives still able to host a
// mapping of cost ≤ bound: not retired by an earlier incumbent and with an
// admissible lower bound permitting the target.
func (f *subsetFamily) pendingFor(bound int) []int {
	var out []int
	for i, inst := range f.insts {
		if !f.pruned[i] && inst.lb <= bound {
			out = append(out, i)
		}
	}
	return out
}

func (f *subsetFamily) pending(bound int) int { return len(f.pendingFor(bound)) }

// guard returns the activation literal r with r → (s_i ∨ …) over the
// representatives pending at bound, minting (and memoizing) it on first
// use. Assuming r forces the model onto one of the family's subsets.
func (f *subsetFamily) guard(bound int) (sat.Lit, bool) {
	pending := f.pendingFor(bound)
	key := make([]byte, 0, 2*len(pending))
	for _, i := range pending {
		key = append(key, byte(i>>8), byte(i))
	}
	if r, ok := f.guards[string(key)]; ok {
		return r, true
	}
	r := f.B.NewLit()
	sels := make([]sat.Lit, len(pending))
	for j, i := range pending {
		sels[j] = f.Selector(i)
	}
	f.B.AddGuardedClause(r, sels...)
	f.guards[string(key)] = r
	return r, true
}

// retire drops every representative whose admissible lower bound proves it
// cannot beat the new incumbent cost. Retired representatives leave the
// pending families — no probe is ever spent on them again — and their
// orbits are covered by the same bound argument.
func (f *subsetFamily) retire(cost int) int {
	n := 0
	for i, inst := range f.insts {
		if !f.pruned[i] && inst.lb >= cost {
			f.pruned[i] = true
			n++
		}
	}
	return n
}

// decode reads the model's chosen subset and its solution.
func (f *subsetFamily) decode() (*encoder.Solution, int, error) {
	w, ok := f.TrueSelector()
	if !ok {
		return nil, -1, fmt.Errorf("exact: satisfying model activates no subset selector")
	}
	sol, err := f.DecodeSubset(w)
	if err != nil {
		return nil, -1, err
	}
	return sol, w, nil
}
