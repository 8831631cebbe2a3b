package exact

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/cnf"
	"repro/internal/encoder"
	"repro/internal/sat"
)

// SATOptions tunes the SAT-based engine.
type SATOptions struct {
	// StartBound, when positive, enforces F ≤ StartBound on the first
	// solve (e.g. a known upper bound from the DP engine or a heuristic).
	// Zero or negative disables it; a genuine zero bound is unnecessary
	// because the descent reaches it anyway. The bound is applied as a
	// guard assumption, never as permanent clauses, so a StartBound below
	// the true optimum of the (possibly strategy-restricted) instance is
	// safe: the engine detects the failed assumption, drops the bound and
	// continues on the same solver without a re-encode.
	StartBound int
	// BinaryDescent switches the minimization loop from linear descent
	// (assume F ≤ cost−1 after each model) to binary search on the bound.
	// Both modes run on one solver and one encoding, probing bounds via
	// guard assumptions.
	BinaryDescent bool
	// MaxConflicts bounds each individual solver call; 0 means unlimited.
	// When the budget is exhausted the best model so far is returned with
	// Result.Minimal false (the proof was truncated).
	MaxConflicts int64
	// LowerBound, when positive, is an admissible lower bound on F: the
	// descent treats every bound below it as already refuted (seeding the
	// binary search's lower end) and accepts a model matching it without a
	// final UNSAT probe. An inadmissible value (above the true optimum)
	// silently voids the minimality guarantee, so only pass proven bounds.
	// When zero, the engine computes the coupling-graph distance bound
	// itself (see NoLowerBound).
	LowerBound int
	// NoLowerBound disables the automatic admissible lower-bound
	// computation when LowerBound is zero — the escape hatch behind the
	// CLIs' -lower-bound=off flags, and the baseline configuration for
	// probe-count comparisons.
	NoLowerBound bool
	// NoCoreJumps restricts every descent probe to a single bound guard,
	// disabling the unsat-core-guided multi-bound probing. With
	// NoLowerBound it reproduces the pre-core bound-per-probe descent;
	// kept as an escape hatch and for regression benchmarking.
	NoCoreJumps bool
	// Anytime changes the resource-exhaustion failure mode of the descent:
	// when the context deadline expires (or the conflict budget runs dry)
	// after at least one satisfying model has been found, the run returns
	// that incumbent as a valid non-minimal Result — Degraded true,
	// BoundGap bracketing the unproven range — instead of an error.
	// Without an incumbent in hand the usual error is still returned, and
	// a caller-initiated cancellation (context.Canceled) always errors:
	// anytime is for deadlines, not for aborts. Off by default, so
	// deadline expiry keeps its historical error semantics.
	Anytime bool
	// Threads, when > 1, runs every solver call as a clause-sharing
	// portfolio of that many diversified goroutine workers over the one
	// incremental encoding (sat.Pool), capped by the ThreadBudget so that
	// workers × portfolio width never exceeds runtime.GOMAXPROCS (an
	// oversubscribed portfolio only steals cycles from its own winner).
	// The minimal cost and the minimality proof are unaffected, but the
	// witness mapping may differ between runs — the default (≤ 1) keeps
	// the fully deterministic single solver.
	Threads int
	// Budget caps the run's total parallelism. Workers is the number of
	// concurrent solver lanes the CALLER runs (e.g. the DP fan-out's
	// subset workers); SolveSAT multiplies its portfolio width into the
	// same budget, so lanes × width ≤ GOMAXPROCS holds end to end instead
	// of each layer claiming GOMAXPROCS independently. The zero value
	// means one lane.
	Budget ThreadBudget
}

// ThreadBudget is the process-wide parallelism budget shared by every layer
// of a solve: subset/probe worker lanes × SAT portfolio width must not
// exceed runtime.GOMAXPROCS. Each layer fills in its dimension and calls
// Clamp; the portfolio width shrinks first (a narrower portfolio still
// answers correctly), then the lane count.
type ThreadBudget struct {
	// Workers is the number of concurrent solver lanes (≥ 1 after Clamp).
	Workers int
	// Threads is the clause-sharing portfolio width per lane (≥ 1 after
	// Clamp).
	Threads int
}

// Clamp normalizes the budget so Workers ≥ 1, Threads ≥ 1 and
// Workers × Threads ≤ runtime.GOMAXPROCS(0), shrinking Threads before
// Workers.
func (tb ThreadBudget) Clamp() ThreadBudget {
	if tb.Workers < 1 {
		tb.Workers = 1
	}
	if tb.Threads < 1 {
		tb.Threads = 1
	}
	max := runtime.GOMAXPROCS(0)
	if tb.Workers > max {
		tb.Workers = max
	}
	for tb.Threads > 1 && tb.Workers*tb.Threads > max {
		tb.Threads--
	}
	return tb
}

// satProber is the solving surface the bound descent needs; both the plain
// *sat.Solver and the portfolio *sat.Pool implement it, so the descent,
// core jumps and guard relaxation run unchanged on either.
type satProber interface {
	SolveContext(ctx context.Context, assumptions ...sat.Lit) sat.Status
	UnsatFromAssumptions() bool
	UnsatCore() []sat.Lit
	Snapshot() sat.Stats
}

// family is what the bound descent minimizes over: one or more instances
// ("members") encoded into one solver and sharing its cost-bound guards.
// The shared §4.1 instance is a family of subsets; a plain instance is a
// family of one.
type family interface {
	// CostAtMostLit and GuardBound mint and read back the cost-bound
	// guards every member shares.
	CostAtMostLit(bound int) sat.Lit
	GuardBound(g sat.Lit) (int, bool)
	// pending counts the members still able to host a mapping of cost
	// ≤ bound.
	pending(bound int) int
	// guard returns the assumption that confines a model to the members
	// pending at bound; ok is false when no such assumption is needed.
	guard(bound int) (g sat.Lit, ok bool)
	// decode reads the current model's solution and the index of the
	// member hosting it.
	decode() (*encoder.Solution, int, error)
	// retire drops every member whose admissible lower bound shows it
	// cannot beat an incumbent of the given cost, returning how many it
	// dropped.
	retire(cost int) int
}

// single is a plain encoding as a family of one: no guard, one member that
// is never retired (its admissible lower bound seeds the descent's floor).
type single struct{ *encoder.Encoding }

func (single) pending(int) int           { return 1 }
func (single) guard(int) (sat.Lit, bool) { return 0, false }
func (single) retire(int) int            { return 0 }

func (s single) decode() (*encoder.Solution, int, error) {
	sol, err := s.Decode()
	return sol, 0, err
}

// SolveSAT finds the minimal-cost mapping for the problem using the paper's
// symbolic formulation and the CDCL solver: solve, decode the model's cost
// C, enforce F ≤ C−1, and repeat until UNSAT — the last model is minimal
// (§3.3, realized by bound tightening instead of a native optimizer).
//
// The descent is fully incremental: the instance is encoded exactly once
// (Result.SATEncodes == 1) and every bound — the caller's StartBound, each
// linear tightening step, each binary-search midpoint — is enforced by
// passing the bound's activation literal (Encoding.CostAtMostLit) as a
// solver assumption. UNSAT probes therefore never poison the instance and
// learnt clauses survive across all probes.
//
// Two mechanisms cut the number of probes further. The descent's lower end
// is seeded with an admissible lower bound from the coupling-graph distance
// sum (Result.LowerBound): bounds below it are never probed, and a model
// meeting it is accepted as minimal without the closing UNSAT call. And
// unless NoCoreJumps is set, each probe assumes the primary bound plus one
// or two optimistic bounds below it; on UNSAT the solver's minimized
// assumption core (sat.Solver.UnsatCore) names the loosest bound that is
// actually inconsistent, so a single call can refute a whole range
// (Result.BoundJumps counts these multi-step advances).
//
// The context cancels the run: the solver notices within a few hundred
// conflicts and SolveSAT returns ctx.Err() (wrapped) — unless
// SATOptions.Anytime is set and an incumbent model exists, in which case a
// deadline expiry returns that incumbent as a Degraded best-effort Result.
func SolveSAT(ctx context.Context, p encoder.Problem, opts SATOptions) (res *Result, err error) {
	// A solver or encoder bug must fail this one solve, not whatever
	// goroutine pool the caller runs it on: panics become errors here.
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, fmt.Errorf("exact: SAT engine panic: %v", r)
		}
	}()
	start := time.Now()
	lb := opts.lowerBound(p)
	solver := sat.New(sat.Options{MaxConflicts: opts.MaxConflicts})
	enc, err := encoder.Encode(ctx, p, cnf.NewBuilder(solver))
	if err != nil {
		return nil, err
	}
	res = &Result{
		WorkArch:   p.Arch,
		PermPoints: enc.NumPermPoints(),
		Engine:     EngineSAT.String(),
		Counters:   Counters{SATEncodes: 1, LowerBound: lb},
	}
	best, _, err := runDescent(ctx, solver, single{enc}, res, opts, opts.Threads, lb-1)
	// Failures past this point still return the Result so callers can
	// aggregate the run's counters; only a nil error carries a Solution.
	if err != nil {
		return res, err
	}
	if best == nil {
		return res, fmt.Errorf("exact: %w (unsatisfiable instance)", ErrUnsatisfiable)
	}
	res.Solution = best
	res.Cost = best.Cost
	res.Runtime = time.Since(start)
	return res, nil
}

// lowerBound returns the admissible lower bound on F that seeds the descent
// on p: the caller's LowerBound when positive, otherwise the coupling-graph
// distance bound unless NoLowerBound switches it off (0).
func (opts SATOptions) lowerBound(p encoder.Problem) int {
	switch {
	case opts.LowerBound > 0:
		return opts.LowerBound
	case opts.NoLowerBound:
		return 0
	}
	return admissibleLowerBound(p)
}

// runDescent runs the bound descent on fam, encoded into solver, as a
// clause-sharing portfolio of the requested width clamped into the
// ThreadBudget (an oversubscribed portfolio only steals cycles from its own
// winner; the caller's lanes × this width stays within GOMAXPROCS). It
// records the effective width and the solver's conflict and clause-import
// counters in res, also when the descent fails.
func runDescent(ctx context.Context, solver *sat.Solver, fam family, res *Result, opts SATOptions, threads, lo int) (*encoder.Solution, int, error) {
	budget := opts.Budget
	budget.Threads = threads
	res.SATThreads = budget.Clamp().Threads
	var prober satProber = solver
	if res.SATThreads > 1 {
		// The pool clones the fully built encoding lazily at the first
		// probe and installs the winning worker's model/core back into the
		// master, so decoding and the guard bookkeeping stay untouched.
		prober = sat.NewPool(solver, res.SATThreads)
	}
	best, idx, err := descend(ctx, prober, fam, res, opts, lo)
	snap := prober.Snapshot()
	res.SATConflicts = snap.Conflicts
	res.SharedClauses = snap.SharedImports
	return best, idx, err
}

// descend is the bound descent of paper §3.3, run over a family of members
// on one solver. lo is the largest bound known refuted before any probe
// (the admissible lower bound minus one). Each probe assumes the family
// guard of the members still able to reach the target bound, then the
// primary bound guard, then the optimistic ones below it. A model becomes
// the incumbent, retires the members it outclasses, and sets the next
// target: C−1 for linear descent, the midpoint between lo and C for binary
// descent (SATOptions.BinaryDescent). An UNSAT probe raises lo to the
// loosest bound in the solver's minimized assumption core. A target no
// pending member can reach is refuted by the admissible bounds alone, so lo
// advances without a probe. The incumbent is proven minimal once C−1 ≤ lo.
//
// It returns the incumbent and its member index, nil with Result.Minimal
// set when no member admits any mapping, or an error. A run cut off by its
// conflict budget or (in anytime mode) its deadline returns the incumbent
// marked Degraded; without an incumbent it errors.
func descend(ctx context.Context, prober satProber, fam family, res *Result, opts SATOptions, lo int) (*encoder.Solution, int, error) {
	var best *encoder.Solution
	bestIdx := -1
	target := math.MaxInt // no model yet: any cost will do
	members := fam.pending(target)
	var bounds []sat.Lit
	if opts.StartBound > 0 {
		bounds = []sat.Lit{fam.CostAtMostLit(opts.StartBound)}
	}
	for {
		assume := bounds
		if g, ok := fam.guard(target); ok {
			assume = append([]sat.Lit{g}, bounds...)
		}
		res.SATSolves++
		if len(bounds) > 0 {
			res.BoundProbes++
		}
		switch prober.SolveContext(ctx, assume...) {
		case sat.Unknown:
			if err := ctx.Err(); err != nil && !anytimeReturn(opts, best != nil, err) {
				return nil, -1, fmt.Errorf("exact: solve canceled: %w", err)
			}
			if best == nil {
				return nil, -1, ErrBudgetExhausted
			}
			res.markAnytime(best.Cost, lo)
			return best, bestIdx, nil // truncated: best-effort incumbent, proof unfinished
		case sat.Unsat:
			if best == nil && len(bounds) > 0 && prober.UnsatFromAssumptions() {
				// Only the caller's unproven StartBound is assumed and it
				// undercut the optimum: drop it and continue on the same
				// instance, keeping everything learnt while refuting it.
				bounds = nil
				continue
			}
			if best == nil {
				res.Minimal = true // no member admits any mapping
				return nil, -1, nil
			}
			if members > 1 {
				// One conflict analysis refuted the bound for every
				// pending member at once.
				res.CoreFamilyRefutations++
			}
			refuted, jumped := coreRefutedBound(prober, fam, assume)
			if jumped {
				res.BoundJumps++
			}
			if refuted > lo {
				lo = refuted
			}
		case sat.Sat:
			sol, idx, err := fam.decode()
			if err != nil {
				return nil, -1, err
			}
			best, bestIdx = sol, idx
			res.SubsetsPruned += fam.retire(sol.Cost)
		}
		for {
			if best.Cost-1 <= lo {
				// The incumbent meets the refuted floor (by UNSAT probes or
				// the admissible lower bound): minimal.
				res.Minimal = true
				return best, bestIdx, nil
			}
			target = best.Cost - 1
			if opts.BinaryDescent {
				target = lo + (best.Cost-lo)/2
			}
			if members = fam.pending(target); members > 0 {
				break
			}
			lo = target
		}
		bounds = probeAssumptions(fam, target, lo, opts)
	}
}

// anytimeReturn reports whether a descent cut off by its context should hand
// back the incumbent instead of erroring: anytime mode is on, a model is in
// hand, and the context died of its deadline. A caller-initiated cancel
// (context.Canceled) always errors — anytime softens deadlines, not aborts.
func anytimeReturn(opts SATOptions, haveModel bool, ctxErr error) bool {
	return opts.Anytime && haveModel && errors.Is(ctxErr, context.DeadlineExceeded)
}

// probeAssumptions builds the guard set for probing `bound` given `lo`, the
// largest bound already refuted: the primary guard first, then (unless core
// jumps are disabled) up to two optimistic bounds halfway and quarter-way
// down towards lo. The order matters: the solver's core minimization tries
// to remove later assumptions first, so listing loose→tight steers the
// minimized core towards the loosest refutable bound — the biggest jump.
func probeAssumptions(fam family, bound, lo int, opts SATOptions) []sat.Lit {
	assume := []sat.Lit{fam.CostAtMostLit(bound)}
	if opts.NoCoreJumps {
		return assume
	}
	if b1 := lo + (bound-lo)/2; b1 > lo && b1 < bound {
		assume = append(assume, fam.CostAtMostLit(b1))
		if b2 := lo + (b1-lo)/2; b2 > lo && b2 < b1 {
			assume = append(assume, fam.CostAtMostLit(b2))
		}
	}
	return assume
}

// coreRefutedBound translates the solver's minimized unsat core back into
// the loosest cost bound proven unsatisfiable. The guards are nested (the
// conjunction of a core equals its tightest bound), so a core that kept
// only the loosest assumed guard refutes the whole probed range in one
// call. It returns the refuted bound and whether core analysis improved on
// the trivial reading of the probe (the tightest assumed bound) — a
// core-guided jump.
func coreRefutedBound(solver satProber, fam family, assumed []sat.Lit) (int, bool) {
	minAssumed := math.MaxInt
	for _, g := range assumed {
		if b, ok := fam.GuardBound(g); ok && b < minAssumed {
			minAssumed = b
		}
	}
	refuted := math.MaxInt
	for _, g := range solver.UnsatCore() {
		if b, ok := fam.GuardBound(g); ok && b < refuted {
			refuted = b
		}
	}
	if refuted == math.MaxInt {
		refuted = minAssumed // defensive: no guard survived into the core
	}
	return refuted, minAssumed != math.MaxInt && refuted > minAssumed
}
