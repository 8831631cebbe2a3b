// Package portfolio orchestrates the repository's solving engines into a
// single entry point. A Solve call
//
//  1. consults an optional LRU cache keyed by a canonical fingerprint of
//     the instance (skeleton, architecture, strategy, subsets, pin),
//  2. runs the cheap stochastic heuristic to obtain an upper bound on the
//     cost F and seeds the SAT engine's descent with it
//     (exact.SATOptions.StartBound) — the engine independently derives an
//     admissible lower bound from coupling-graph distances
//     (exact.SATOptions.LowerBound), so the descent is squeezed from both
//     ends: the heuristic caps the first model, the distance bound floors
//     the final UNSAT proof — and
//  3. races the SAT and DP exact engines concurrently: the first engine to
//     return a valid minimal result wins and the loser is cancelled via
//     context, which it notices within one restart interval (SAT) or one
//     frame transition (DP).
//
// Because both engines are exact for the same cost function, the winning
// cost is independent of which engine finishes first — racing trades
// redundant CPU for the latency of whichever backend happens to be faster
// on the instance (DP on the tiny QX mapping spaces, SAT on instances
// whose state space overflows the DP bound).
package portfolio

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/arch"
	"repro/internal/circuit"
	"repro/internal/exact"
	"repro/internal/heuristic"
)

// Options configures a portfolio Solve.
type Options struct {
	// Exact carries the instance options shared by both engines: Strategy,
	// UseSubsets, Parallel, InitialMapping and SAT tuning. The Engine
	// field is ignored — the portfolio races both engines.
	Exact exact.Options
	// HeuristicRuns is the number of stochastic-heuristic seeds used to
	// derive the SAT engine's starting upper bound (default 2). Negative
	// disables the bounding phase entirely.
	HeuristicRuns int
	// UpperBound, when positive, supplies an externally known upper bound
	// on F (e.g. from a heuristic the caller already ran); the bounding
	// phase is skipped and this value seeds the SAT descent instead. An
	// unsound bound is safe: the SAT engine relaxes the bound assumption
	// in place when it undercuts the instance's optimum.
	UpperBound int
	// Seed seeds the bounding heuristic's random source.
	Seed int64
	// Cache, when non-nil, memoizes results across Solve calls. Only
	// minimality-guaranteed runs (no conflict budget) are cached.
	Cache *Cache
	// Store, when non-nil, is the persistent tier under the Cache: misses
	// fall through to it (hits are promoted into the Cache) and solved
	// results are written through, so identical instances are served from
	// disk across process restarts. Subject to the same cacheability rule
	// as the Cache.
	Store ResultStore
	// Ladder enables the deadline-aware degradation ladder. Rung 1 is the
	// normal exact race. Rung 2 is the anytime incumbent: the SAT descent
	// runs with exact.SATOptions.Anytime, so a deadline that expires after
	// a model was found returns that model as a valid non-minimal result
	// (Result.Degradation "anytime"). Rung 3, when even that fails on a
	// deadline or conflict-budget exhaustion, is a heuristic plan — A*
	// first, the stochastic mapper as backup — priced under the
	// architecture's active cost model (Result.Degradation "heuristic",
	// Result.Heuristic set, Result.Result nil). With generous deadlines
	// the ladder never engages and results are bit-identical to a run
	// without it. Degraded results are never written to the caches.
	Ladder bool
}

// Result is the outcome of a portfolio Solve.
type Result struct {
	// Result is the winning engine's solution (shared with the cache when
	// caching is enabled; treat as immutable).
	*exact.Result
	// Winner names the source of the result: "sat", "dp", "cache" or
	// "heuristic" (the ladder's last rung).
	Winner string
	// Degradation names the ladder rung that produced the result: "" for
	// a full exact solve or cache hit, DegradationAnytime for a truncated
	// descent's incumbent, DegradationHeuristic for the heuristic
	// fallback.
	Degradation string
	// Heuristic is the fallback plan when Degradation is
	// DegradationHeuristic; Result is nil in that case (and only then).
	Heuristic *heuristic.Result
	// CacheHit reports whether the result was served from the cache;
	// Tier names the serving tier (TierMemory or TierDisk, "" on a solve).
	CacheHit bool
	Tier     string
	// UpperBound is the heuristic upper bound fed into the SAT descent
	// (0 when the bounding phase was skipped or found nothing).
	UpperBound int
	// Runtime is the wall-clock time of this Solve call, including the
	// bounding phase (and nearly zero on cache hits).
	Runtime time.Duration
}

// attempt is one engine's outcome in the race.
type attempt struct {
	res    *exact.Result
	err    error
	engine exact.Engine
}

// Solve maps the skeleton to the architecture by racing the exact engines,
// seeded by the stochastic heuristic and memoized in opts.Cache. The
// returned result is minimal exactly when a lone exact.Solve run with the
// same options would be. Cancelling the context aborts the bounding phase
// and both engines promptly; Solve then returns an error wrapping
// ctx.Err().
func Solve(ctx context.Context, sk *circuit.Skeleton, a *arch.Arch, opts Options) (*Result, error) {
	start := time.Now()
	if sk == nil || sk.Len() == 0 {
		return nil, fmt.Errorf("portfolio: circuit has no CNOT gates; nothing to map")
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("portfolio: solve canceled: %w", err)
	}

	if opts.Ladder {
		// Rung 2 of the ladder lives inside the SAT descent: keep the
		// incumbent on deadline expiry instead of erroring.
		opts.Exact.SAT.Anytime = true
	}

	// Conflict-budgeted runs may return non-minimal best-effort results,
	// which must never be memoized as if they were the instance's optimum.
	tiers := Tiered{Mem: opts.Cache, Disk: opts.Store}
	cacheable := tiers.Enabled() && opts.Exact.SAT.MaxConflicts == 0
	var key string
	if cacheable {
		key = Fingerprint(sk, a, opts.Exact)
		if cached, tier, ok := tiers.Lookup(key); ok {
			return &Result{
				Result:   cached,
				Winner:   "cache",
				CacheHit: true,
				Tier:     tier,
				Runtime:  time.Since(start),
			}, nil
		}
	}

	bound := opts.UpperBound
	if bound <= 0 && opts.HeuristicRuns >= 0 {
		bound = heuristicBound(ctx, sk, a, opts)
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("portfolio: solve canceled: %w", err)
	}

	winner, err := race(ctx, sk, a, opts, bound)
	if err != nil {
		if opts.Ladder && Exhausted(err) {
			if h, herr := HeuristicFallback(ctx, sk, a, opts.Seed, opts.Exact.InitialMapping); herr == nil {
				return &Result{
					Winner:      "heuristic",
					Degradation: DegradationHeuristic,
					Heuristic:   h,
					UpperBound:  bound,
					Runtime:     time.Since(start),
				}, nil
			}
			// No rung left; surface the exhaustion itself, not the
			// fallback's failure — the caller retries against the former.
		}
		return nil, err
	}
	// Degraded (anytime) results are valid but non-minimal: serve them,
	// never memoize them — a later generous run must not read a truncated
	// cost back as the optimum.
	degradation := ""
	if winner.res.Degraded {
		degradation = DegradationAnytime
	}
	if cacheable && !winner.res.Degraded {
		tiers.Store(key, winner.res)
	}
	cp := *winner.res
	return &Result{
		Result:      &cp,
		Winner:      winner.engine.String(),
		Degradation: degradation,
		UpperBound:  bound,
		Runtime:     time.Since(start),
	}, nil
}

// race runs both exact engines concurrently and returns the first to
// produce a proven-minimal result, cancelling the other. Minimality is
// judged by what the run itself proved (exact.Result.Minimal): a
// conflict-budgeted SAT success whose descent was truncated is a
// best-effort model and is held back until the DP oracle — whose successes
// are always minimal — either wins the race or fails, while a budgeted
// descent that completed its UNSAT proof within budget wins immediately.
// Because every proven-minimal result has the same cost, the returned cost
// stays deterministic and equal to a lone engine's run.
func race(ctx context.Context, sk *circuit.Skeleton, a *arch.Arch, opts Options, bound int) (attempt, error) {
	raceCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	engines := []exact.Engine{exact.EngineDP, exact.EngineSAT}
	ch := make(chan attempt, len(engines))
	for _, eng := range engines {
		go func(eng exact.Engine) {
			// The exact layer has its own recover boundaries, but this
			// goroutine must survive whatever slips past them: a panicking
			// engine is a lost race entry, not a dead process.
			defer func() {
				if r := recover(); r != nil {
					ch <- attempt{err: fmt.Errorf("engine panic: %v", r), engine: eng}
				}
			}()
			ch <- runEngine(raceCtx, sk, a, opts, eng, bound)
		}(eng)
	}

	var bestEffort *attempt
	var errs []error
	for range engines {
		at := <-ch
		if at.err == nil {
			if at.res.Minimal {
				// Proven minimal: stop the loser. It exits within one
				// restart interval / frame transition and writes to the
				// buffered channel, so no goroutine blocks behind us.
				cancel()
				return at, nil
			}
			bestEffort = &at // truncated SAT: only wins if the oracle fails
			continue
		}
		errs = append(errs, fmt.Errorf("%s: %w", at.engine, at.err))
	}
	if bestEffort != nil {
		return *bestEffort, nil
	}
	if err := ctx.Err(); err != nil {
		return attempt{}, fmt.Errorf("portfolio: solve canceled: %w", err)
	}
	return attempt{}, fmt.Errorf("portfolio: all engines failed: %w", errors.Join(errs...))
}

// runEngine executes one engine of the race. The SAT engine is seeded with
// the heuristic upper bound. Restricted strategies (§4.2 odd / triangle)
// and the §4.1 subset restriction are not guaranteed to admit the
// heuristic's solution, but an unsound bound is harmless: the incremental
// engine enforces StartBound as a guard assumption and relaxes it in place
// on the same solver when it proves too tight — the old "retry unbounded"
// re-encode dance is gone.
func runEngine(ctx context.Context, sk *circuit.Skeleton, a *arch.Arch, opts Options, eng exact.Engine, bound int) attempt {
	eo := opts.Exact
	eo.Engine = eng
	if eng == exact.EngineSAT && bound > 0 && (eo.SAT.StartBound <= 0 || bound < eo.SAT.StartBound) {
		eo.SAT.StartBound = bound
	}
	r, err := exact.Solve(ctx, sk, a, eo)
	return attempt{res: r, err: err, engine: eng}
}

// heuristicBound derives a cheap upper bound on F from the stochastic
// heuristic. It returns 0 when no sound bound is available: disconnected
// architectures, a pinned initial mapping (the heuristic cannot route away
// from its pin, so its cost may undercut no valid exact solution — the pin
// semantics differ), or a cancelled context (the heuristic observes the
// context between layers and swap-search trials).
func heuristicBound(ctx context.Context, sk *circuit.Skeleton, a *arch.Arch, opts Options) int {
	if sk.NumQubits > a.NumQubits() || !a.Connected() || opts.Exact.InitialMapping != nil {
		return 0
	}
	runs := opts.HeuristicRuns
	if runs == 0 {
		runs = 2
	}
	h, err := heuristic.MapBest(ctx, sk, a, runs, heuristic.Options{Seed: opts.Seed})
	if err != nil {
		return 0
	}
	return h.Cost
}
