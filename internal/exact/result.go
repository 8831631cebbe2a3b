package exact

import (
	"fmt"
	"time"

	"repro/internal/arch"
	"repro/internal/circuit"
	"repro/internal/encoder"
	"repro/internal/perm"
)

// Counters is the work behind one solve: SAT solves, encodes, conflicts and
// bound probes, and the §4.1 fan-out's pruned subsets and orbit transfers.
// Result, solver.Plan, qxmap.Stats and StatsJSON embed it (the JSON tags fix
// the wire names). A result served from a cache reports all zeros.
type Counters struct {
	// SATSolves counts CDCL solver invocations across the run.
	SATSolves int `json:"sat_solves"`
	// SATEncodes counts instance encodes behind the result. The incremental
	// descent encodes exactly once, so a plain run reports 1 and so does a
	// §4.1 subset run, whose subsets all share one instance; anything more
	// means the engine fell back to re-encoding.
	SATEncodes int `json:"sat_encodes"`
	// SATConflicts counts CDCL conflicts across all solver invocations of
	// the run.
	SATConflicts int64 `json:"sat_conflicts"`
	// BoundProbes counts solver invocations that probed a cost bound via
	// guard assumptions — the descent steps proper, excluding unbounded
	// initial solves. A §4.1 run counts the family probes on its one
	// shared instance.
	BoundProbes int `json:"bound_probes"`
	// BoundJumps counts UNSAT probes where core analysis paid off: the
	// minimized assumption core refuted a looser bound than the tightest
	// one assumed, so the floor advanced past what the probe's conjunction
	// alone implies.
	BoundJumps int `json:"bound_jumps"`
	// LowerBound is the admissible lower bound on F (from the
	// coupling-graph distance sum) that seeded the descent; 0 when
	// disabled or trivial. For a §4.1 run it is the bound the shared
	// descent's floor was seeded from — the minimum over the orbit
	// representatives' own bounds.
	LowerBound int `json:"lower_bound"`
	// SubsetsPruned counts §4.1 subsets retired without any solver probe of
	// their own: their admissible lower bound showed they could not beat
	// the incumbent, so the shared SAT instance dropped them from its
	// pending family (the DP fan-out skips the remaining representatives
	// once a zero-cost incumbent exists). 0 outside the subset fan-out.
	SubsetsPruned int `json:"subsets_pruned"`
	// CoreFamilyRefutations counts UNSAT probes on the shared §4.1
	// instance whose assumption core refuted the whole pending subset
	// family at once — one conflict analysis standing in for a per-subset
	// round of probes. 0 outside the subset fan-out.
	CoreFamilyRefutations int `json:"core_family_refutations"`
	// OrbitHits counts §4.1 subsets whose result was transferred from
	// their coupling-graph automorphism orbit's representative instead of
	// being re-proven: symmetric architectures (rings, grids) collapse
	// many subsets onto one proof. 0 on asymmetric architectures and
	// outside the subset fan-out.
	OrbitHits int `json:"orbit_hits"`
	// SATThreads is the clause-sharing portfolio width of a SAT run (1 for
	// the plain deterministic solver, 0 when not a SAT run).
	SATThreads int `json:"sat_threads"`
	// SharedClauses counts learnt clauses imported across portfolio workers
	// during the run (sat.Stats.SharedImports aggregated over all workers;
	// 0 when SATThreads ≤ 1).
	SharedClauses int64 `json:"shared_clauses"`
}

// Result is the outcome of an exact (or strategy-restricted) mapping run.
type Result struct {
	// Cost is the minimal F found under the architecture's cost model:
	// 7·(SWAPs) + 4·(direction switches) in the paper model, the weighted
	// sum of per-edge SWAP and switch weights under a calibration model.
	Cost int
	// Solution holds the frame mappings, permutations and switch flags.
	// Its physical-qubit indices refer to WorkArch.
	Solution *encoder.Solution
	// WorkArch is the architecture the instance was solved on — either the
	// original or a restricted subset (paper §4.1).
	WorkArch *arch.Arch
	// SubsetBack maps WorkArch physical indices back to the original
	// architecture's indices; nil when no restriction was applied.
	SubsetBack []int
	// PermPoints is |G'| (free initial mapping not counted).
	PermPoints int
	// Engine names the solving engine ("sat" or "dp").
	Engine string
	// Counters is the work the run did.
	Counters
	// Minimal reports whether Cost is PROVEN minimal for this instance by
	// the run itself: the SAT descent reached UNSAT below Cost (or Cost is
	// 0), or the DP/brute oracle ran to completion. A conflict-budgeted
	// descent that was truncated reports false even when its best model
	// happens to be optimal. Note this is per-instance proof — a
	// strategy-restricted instance's proven optimum may still exceed the
	// unrestricted minimum.
	Minimal bool
	// Degraded reports that the run hit its context deadline or conflict
	// budget and returned the best incumbent instead of a proven optimum
	// (anytime mode, SATOptions.Anytime). The Solution is a fully valid
	// mapping; only the minimality proof is missing, so Minimal is always
	// false when Degraded is set.
	Degraded bool
	// BoundGap bounds a Degraded result's distance from the true optimum:
	// the descent had refuted every bound below Cost−BoundGap when it was
	// cut off, so the optimum lies in [Cost−BoundGap, Cost] (cost-model
	// units). 0 when the proof completed — or when the truncation happened
	// before any floor was established, in which case BoundGap equals Cost
	// (the trivial gap).
	BoundGap int
	// Runtime is the wall-clock solving time.
	Runtime time.Duration
}

// markAnytime records a best-effort truncation on the result: the incumbent
// of the given cost is being handed back with its proof unfinished, and lo —
// the largest bound known refuted — dates how far the proof got. Minimal is
// cleared (a truncated descent proves nothing) and BoundGap set so the true
// optimum is bracketed in [cost−BoundGap, cost].
func (r *Result) markAnytime(cost, lo int) {
	r.Minimal = false
	r.Degraded = true
	r.BoundGap = 0
	if gap := cost - 1 - lo; gap > 0 {
		r.BoundGap = gap
	}
}

// translate maps a WorkArch physical index to the original architecture.
func (r *Result) translate(i int) int {
	if r.SubsetBack == nil {
		return i
	}
	return r.SubsetBack[i]
}

// InitialMapping returns the initial logical→physical mapping in original
// architecture indices.
func (r *Result) InitialMapping() perm.Mapping {
	mp := r.Solution.FrameMappings[0].Copy()
	for j, i := range mp {
		mp[j] = r.translate(i)
	}
	return mp
}

// FinalMapping returns the mapping after the last gate in original indices.
func (r *Result) FinalMapping() perm.Mapping {
	mp := r.Solution.FinalMapping().Copy()
	for j, i := range mp {
		mp[j] = r.translate(i)
	}
	return mp
}

// Ops materializes the mapped skeleton as a stream of SWAP and CNOT
// operations on the original architecture's physical qubits. The SWAP
// sequence realizing each inter-frame permutation is walked from a swap
// search started at the frame's target mapping on the working
// architecture — weighted when its cost model is non-uniform, so the
// rebuilt paths follow the same cheapest edges the solver charged for —
// and its length equals the solution's SwapCount (preserving the optimal
// cost). A frame mapping outside the working architecture's mapping space
// is an error.
func (r *Result) Ops(sk *circuit.Skeleton) ([]circuit.MappedOp, error) {
	sol := r.Solution
	n := sk.NumQubits
	space := perm.NewSpace(r.WorkArch.NumQubits(), n)
	for f, mp := range sol.FrameMappings {
		if space.Index(mp) < 0 {
			return nil, fmt.Errorf("exact: frame %d mapping %v is not a placement of %d qubits on %s", f, mp, n, r.WorkArch.Name())
		}
	}
	var graph *perm.SwapGraph // built on the first transition that moves a qubit
	swapPath := func(from, to perm.Mapping) ([]perm.Edge, bool) {
		if from.Equal(to) {
			return nil, true
		}
		if graph == nil {
			var weight func(perm.Edge) int
			if cm := r.WorkArch.Cost(); !cm.UniformSwap() {
				weight = cm.EdgeSwapWeight
			}
			graph = perm.NewSwapGraph(space, r.WorkArch.UndirectedEdges(), weight)
		}
		return graph.Search(to).PathFrom(from)
	}

	var ops []circuit.MappedOp
	frame := 0
	for k, g := range sk.Gates {
		// Emit the permutation's swaps when entering a new frame.
		for frame < sol.GateFrame[k] {
			path, ok := swapPath(sol.FrameMappings[frame], sol.FrameMappings[frame+1])
			if !ok {
				return nil, fmt.Errorf("exact: frames %d→%d unreachable by swaps", frame, frame+1)
			}
			if len(path) != sol.PermSwaps[frame] {
				// A proven-minimal model always charges each transition its
				// cheapest realization, so any mismatch there is a decode
				// bug. A truncated descent's incumbent (Degraded) may charge
				// more swaps than the cheapest path needs — materialize the
				// cheap path; the emitted circuit only undercuts the
				// reported upper-bound cost, never exceeds it.
				if !r.Degraded || len(path) > sol.PermSwaps[frame] {
					return nil, fmt.Errorf("exact: frame %d swap path length %d, solution says %d",
						frame, len(path), sol.PermSwaps[frame])
				}
			}
			for _, e := range path {
				ops = append(ops, circuit.MappedOp{Swap: true, A: r.translate(e.A), B: r.translate(e.B)})
			}
			frame++
		}
		mp := sol.FrameMappings[sol.GateFrame[k]]
		pc, pt := mp[g.Control], mp[g.Target]
		op := circuit.MappedOp{GateIndex: k, Control: r.translate(pc), Target: r.translate(pt), Switched: sol.Switched[k]}
		if sol.Switched[k] {
			op.Control, op.Target = op.Target, op.Control
		}
		ops = append(ops, op)
	}
	return ops, nil
}

// String summarizes the result.
func (r *Result) String() string {
	return fmt.Sprintf("cost=%d (swaps=%d, switches=%d) engine=%s |G'|=%d t=%v",
		r.Cost, r.Solution.SwapCount(), r.Solution.SwitchCount(), r.Engine, r.PermPoints, r.Runtime)
}
