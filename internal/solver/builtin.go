package solver

import (
	"context"
	"fmt"
	"time"

	"repro/internal/arch"
	"repro/internal/circuit"
	"repro/internal/exact"
	"repro/internal/heuristic"
	"repro/internal/portfolio"
)

// Canonical names of the built-in methods, one per Table 1 column plus the
// A*/SABRE extension baselines. The qxmap Method enum indexes this order.
const (
	NameExact        = "exact"
	NameExactSubsets = "exact-subsets"
	NameDisjoint     = "disjoint"
	NameOdd          = "odd"
	NameTriangle     = "triangle"
	NameHeuristic    = "heuristic"
	NameAStar        = "astar"
	NameSabre        = "sabre"
)

func init() {
	// Exact family: §3 full formulation and the §4 restrictions. Only the
	// unrestricted full-architecture formulation guarantees minimality.
	// exact-subsets is deliberately registered minimal=false even though
	// each subset instance proves ITS optimum: §4.1 restricts the mapping
	// to connected n-qubit subsets, and a circuit may route cheaper through
	// more physical qubits than it has logical ones, so the fan-out's best
	// proven cost is an upper bound on the unrestricted minimum. This is
	// why every row of the committed exact-subsets snapshot (BENCH_7.json —
	// 3_17_13 included, whose cost 22 matches the plain-exact proof in
	// BENCH_6.json) reports "minimal": false: the flag tracks the
	// formulation's guarantee, not the observed agreement with Table 1.
	Register(NameExact, exactFactory(exact.StrategyAll, false, true))
	Register(NameExactSubsets, exactFactory(exact.StrategyAll, true, false))
	Register(NameDisjoint, exactFactory(exact.StrategyDisjoint, true, false))
	Register(NameOdd, exactFactory(exact.StrategyOdd, true, false))
	Register(NameTriangle, exactFactory(exact.StrategyTriangle, true, false))

	// Heuristic family: the paper's IBM baseline plus the A*/SABRE
	// extension baselines.
	Register(NameHeuristic, func(cfg Config) (Solver, error) {
		return stochasticSolver{cfg: cfg}, nil
	})
	Register(NameAStar, func(cfg Config) (Solver, error) {
		return astarSolver{cfg: cfg}, nil
	})
	Register(NameSabre, func(cfg Config) (Solver, error) {
		if cfg.InitialLayout != nil {
			return nil, fmt.Errorf("solver: %s does not support a pinned initial layout (it chooses its own)", NameSabre)
		}
		return sabreSolver{cfg: cfg}, nil
	})
}

// exactFactory builds the factory for one exact-family method. minimal
// marks methods whose formulation admits the true optimum (the
// unrestricted §3 formulation only); whether a given run actually proved
// its optimum is reported by the engine in exact.Result.Minimal, and the
// Plan claims minimality only when both hold.
func exactFactory(strategy exact.Strategy, subsets, minimal bool) Factory {
	return func(cfg Config) (Solver, error) {
		return exactSolver{cfg: cfg, strategy: strategy, subsets: subsets, minimal: minimal}, nil
	}
}

// exactSolver runs one exact-family method, either directly on the
// configured engine or through the portfolio layer.
type exactSolver struct {
	cfg      Config
	strategy exact.Strategy
	subsets  bool
	minimal  bool
}

func (s exactSolver) Solve(ctx context.Context, sk *circuit.Skeleton, a *arch.Arch) (*Plan, error) {
	start := time.Now()
	eo := exact.Options{
		Engine:         s.cfg.Engine,
		Strategy:       s.strategy,
		UseSubsets:     s.subsets,
		SAT:            s.cfg.SAT,
		InitialMapping: s.cfg.InitialLayout,
		Parallel:       s.cfg.Parallel,
	}
	if s.cfg.Ladder {
		// Rung 2 of the degradation ladder: deadline expiry after a model
		// was found hands back the incumbent instead of erroring.
		eo.SAT.Anytime = true
	}
	var er *exact.Result
	var cacheHit bool
	var cacheTier string
	var degradation string
	if s.cfg.Portfolio {
		po := portfolio.Options{Exact: eo, Seed: s.cfg.Seed, Cache: s.cfg.Cache, Store: s.cfg.Store, Ladder: s.cfg.Ladder}
		switch {
		case s.cfg.UpperBound > 0:
			po.UpperBound = s.cfg.UpperBound
			po.HeuristicRuns = -1 // the caller's bound replaces the bounding phase
		case s.cfg.UpperBound < 0:
			po.HeuristicRuns = -1 // caller already bounded and found F = 0
		}
		pr, err := portfolio.Solve(ctx, sk, a, po)
		if err != nil {
			return nil, err
		}
		if pr.Heuristic != nil {
			// The ladder bottomed out in its heuristic rung: no exact
			// result exists, the plan comes from the heuristic mapper.
			p := heuristicPlan(pr.Heuristic, NameHeuristic, start)
			p.Degradation = pr.Degradation
			return p, nil
		}
		er = pr.Result
		cacheHit = pr.CacheHit
		cacheTier = pr.Tier
		degradation = pr.Degradation
	} else {
		// Direct engine path. An attached persistent store turns it into the
		// same two-tier lookup the portfolio uses — memory, then disk with
		// LRU promotion, then a real solve written through — gated on the
		// store so the historical no-store behavior (no caching outside
		// Portfolio mode) is untouched. Conflict-budgeted runs may be
		// non-minimal best-effort answers and bypass the cache entirely.
		tiers := portfolio.Tiered{Mem: s.cfg.Cache, Disk: s.cfg.Store}
		cacheable := s.cfg.Store != nil && s.cfg.SAT.MaxConflicts == 0
		var key string
		if cacheable {
			key = portfolio.Fingerprint(sk, a, eo)
			if cached, tier, ok := tiers.Lookup(key); ok {
				er, cacheHit, cacheTier = cached, true, tier
			}
		}
		if er == nil {
			var err error
			if er, err = exact.Solve(ctx, sk, a, eo); err != nil {
				if s.cfg.Ladder && portfolio.Exhausted(err) {
					// Last rung: the descent exhausted without even an
					// incumbent — build a heuristic plan rather than fail.
					if h, herr := portfolio.HeuristicFallback(ctx, sk, a, s.cfg.Seed, s.cfg.InitialLayout); herr == nil {
						p := heuristicPlan(h, NameHeuristic, start)
						p.Degradation = portfolio.DegradationHeuristic
						return p, nil
					}
				}
				return nil, err
			}
			if er.Degraded {
				degradation = portfolio.DegradationAnytime
			}
			if cacheable && !er.Degraded {
				// An anytime incumbent is valid but non-minimal: never let
				// it be read back later as the instance's optimum.
				tiers.Store(key, er)
			}
		}
	}
	ops, err := er.Ops(sk)
	if err != nil {
		return nil, err
	}
	return &Plan{
		Ops:         ops,
		Initial:     er.InitialMapping(),
		Cost:        er.Cost,
		Swaps:       er.Solution.SwapCount(),
		Switches:    er.Solution.SwitchCount(),
		PermPoints:  er.PermPoints,
		Minimal:     s.minimal && er.Minimal,
		Engine:      er.Engine,
		CacheHit:    cacheHit,
		CacheTier:   cacheTier,
		Counters:    er.Counters,
		Degradation: degradation,
		BoundGap:    er.BoundGap,
		Runtime:     time.Since(start),
	}, nil
}

// stochasticSolver wraps the Qiskit-style stochastic baseline ("IBM [12]"
// in Table 1), keeping the best of HeuristicRuns seeded runs.
type stochasticSolver struct{ cfg Config }

func (s stochasticSolver) Solve(ctx context.Context, sk *circuit.Skeleton, a *arch.Arch) (*Plan, error) {
	start := time.Now()
	runs := s.cfg.HeuristicRuns
	if runs <= 0 {
		runs = 5
	}
	h, err := heuristic.MapBest(ctx, sk, a, runs,
		heuristic.Options{Seed: s.cfg.Seed, Initial: s.cfg.InitialLayout})
	if err != nil {
		return nil, err
	}
	return heuristicPlan(h, NameHeuristic, start), nil
}

// astarSolver wraps the deterministic per-layer A* baseline.
type astarSolver struct{ cfg Config }

func (s astarSolver) Solve(ctx context.Context, sk *circuit.Skeleton, a *arch.Arch) (*Plan, error) {
	start := time.Now()
	h, err := heuristic.MapAStar(ctx, sk, a,
		heuristic.AStarOptions{Lookahead: s.cfg.Lookahead, Initial: s.cfg.InitialLayout})
	if err != nil {
		return nil, err
	}
	return heuristicPlan(h, NameAStar, start), nil
}

// sabreSolver wraps the SABRE-style forward/backward refinement passes.
type sabreSolver struct{ cfg Config }

func (s sabreSolver) Solve(ctx context.Context, sk *circuit.Skeleton, a *arch.Arch) (*Plan, error) {
	start := time.Now()
	h, err := heuristic.MapSabre(ctx, sk, a,
		heuristic.SabreOptions{Lookahead: s.cfg.Lookahead})
	if err != nil {
		return nil, err
	}
	return heuristicPlan(h, NameSabre, start), nil
}

// heuristicPlan converts a heuristic result into the uniform Plan shape.
func heuristicPlan(h *heuristic.Result, engine string, start time.Time) *Plan {
	return &Plan{
		Ops:      h.Ops,
		Initial:  h.InitialMapping,
		Cost:     h.Cost,
		Swaps:    h.Swaps,
		Switches: h.Switches,
		Engine:   engine,
		Runtime:  time.Since(start),
	}
}
