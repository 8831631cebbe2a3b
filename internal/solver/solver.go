// Package solver is the pluggable solving abstraction shared by every
// layer of the repository: the public qxmap API, the Table-1 experiment
// harness (internal/bench) and the command-line tools all resolve mapping
// methods through this package's name-keyed registry instead of private
// switches.
//
// A Solver turns a CNOT skeleton plus an architecture into a Plan — a
// uniform description of the solution (mapped op stream, initial layout,
// cost breakdown, minimality, engine provenance) that replaces the
// previously divergent exact.Result / heuristic.Result handling. The eight
// built-in methods of the paper's evaluation (exact, exact-subsets,
// disjoint, odd, triangle, heuristic, astar, sabre) are registered at
// package initialization; new backends (a remote solver, a sharded cache,
// another heuristic) become one Register call instead of another switch
// arm in every caller.
//
// Construction is two-phase: Register binds a name to a Factory, and New
// instantiates a Solver from a name plus a Config. The Config carries every
// tuning knob a built-in method understands (engine choice, SAT options,
// heuristic seeds, portfolio routing); factories validate the subset they
// honor and reject combinations they cannot (e.g. sabre with a pinned
// initial layout).
//
// All solvers are safe for concurrent use by multiple goroutines: a Solver
// value holds only immutable configuration, so one instance may serve a
// whole worker pool (qxmap.MapBatch relies on this).
package solver

import (
	"context"
	"time"

	"repro/internal/arch"
	"repro/internal/circuit"
	"repro/internal/exact"
	"repro/internal/perm"
	"repro/internal/portfolio"
)

// Solver maps a CNOT skeleton onto an architecture. Implementations must
// observe context cancellation (returning an error that wraps ctx.Err())
// and must be safe for concurrent use.
type Solver interface {
	Solve(ctx context.Context, sk *circuit.Skeleton, a *arch.Arch) (*Plan, error)
}

// Config carries the cross-method tuning knobs. Each factory reads the
// fields it understands and ignores the rest, mirroring how qxmap.Options
// applies only to the selected method.
type Config struct {
	// Engine selects the exact backend (default exact.EngineSAT); ignored
	// by the heuristic family and by Portfolio mode (which races both).
	Engine exact.Engine
	// SAT carries SAT-engine tuning (start bound, descent mode, conflict
	// budget); exact family only.
	SAT exact.SATOptions
	// HeuristicRuns is the number of stochastic-heuristic seeds, keeping
	// the best (default 5, as in the paper's evaluation).
	HeuristicRuns int
	// Seed seeds the stochastic heuristic's random source.
	Seed int64
	// Lookahead weighs the next layer into the A*/SABRE search heuristic.
	Lookahead float64
	// InitialLayout, when non-nil, pins the logical→physical layout before
	// the first gate. Rejected by methods that renumber physical qubits
	// internally (subset-based methods) or choose their own layout (sabre).
	InitialLayout []int
	// Parallel fans the §4.1 subset instances out across goroutines.
	Parallel bool
	// Portfolio routes exact methods through internal/portfolio: the
	// stochastic heuristic bounds the SAT descent, the SAT and DP engines
	// race, and results are memoized in Cache. Heuristic methods ignore it.
	Portfolio bool
	// Cache is the portfolio memo consulted when Portfolio is set; nil
	// disables memoization.
	Cache *portfolio.Cache
	// Store is the persistent result tier under the Cache. When set, the
	// exact family consults it even outside Portfolio mode — memory hit →
	// disk hit (promoted into the Cache) → solve → write-through — so
	// identical instances are served across process restarts. Results with
	// a conflict budget (possibly non-minimal) are never stored.
	Store portfolio.ResultStore
	// UpperBound, when positive, is an externally known bound on F handed
	// to the portfolio layer in place of its own bounding phase; a
	// negative value records that the caller already bounded the instance
	// and found F = 0 (no seedable bound, but the bounding phase is still
	// skipped). Zero leaves the portfolio's own bounding enabled.
	// Portfolio mode only.
	UpperBound int
	// Ladder enables graceful degradation for the exact family: the SAT
	// descent runs in anytime mode (a deadline that expires after a model
	// was found returns that incumbent as a valid non-minimal plan,
	// Plan.Degradation "anytime" with Plan.BoundGap bracketing the
	// optimum), and when even that yields nothing on a deadline or
	// conflict-budget exhaustion, a heuristic fallback plan is built
	// (Plan.Degradation "heuristic"). With generous deadlines the ladder
	// never engages and plans are identical to a run without it. Degraded
	// plans are never cached. Heuristic methods ignore it.
	Ladder bool
}

// Plan is the uniform outcome of a Solve call, shared by every method: the
// materialization layer (qxmap) consumes Ops+Initial, the reporting layers
// consume the cost breakdown and provenance.
type Plan struct {
	// Ops is the mapped operation stream over physical qubits: SWAP ops
	// interleaved with the skeleton's CNOTs (with direction-switch flags).
	Ops []circuit.MappedOp
	// Initial is the logical→physical layout before the first gate.
	Initial perm.Mapping
	// Cost is F = 7·Swaps + 4·Switches; Swaps and Switches break it down.
	Cost     int
	Swaps    int
	Switches int
	// PermPoints is |G'|, the number of in-circuit permutation points the
	// method considered (exact family only; 0 otherwise).
	PermPoints int
	// Minimal reports whether Cost is guaranteed minimal: the method's
	// formulation admits the true optimum AND the run itself proved it
	// (a conflict-budget-truncated descent voids the proof; one that
	// reached UNSAT within its budget keeps it).
	Minimal bool
	// Engine names the backend that produced the plan: "sat" or "dp" for
	// the exact family (round-tripping with exact.ParseEngine), or the
	// method's own registry name for the heuristic family.
	Engine string
	// CacheHit reports that the plan was served from the portfolio cache;
	// CacheTier names the tier that served it (portfolio.TierMemory or
	// portfolio.TierDisk; "" when the plan was solved).
	CacheHit  bool
	CacheTier string
	// Counters is the solve's work, as the exact engine reported it (all
	// zero for heuristic methods and cache hits).
	exact.Counters
	// Degradation names the ladder rung that produced the plan when
	// Config.Ladder degraded the solve: portfolio.DegradationAnytime for
	// a deadline-truncated descent's incumbent,
	// portfolio.DegradationHeuristic for the heuristic fallback, "" for a
	// full solve. BoundGap brackets an anytime plan's distance from the
	// optimum (the optimum lies in [Cost−BoundGap, Cost]); 0 otherwise.
	Degradation string
	BoundGap    int
	// Runtime is the wall-clock solving time.
	Runtime time.Duration
}
