package exact

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/arch"
	"repro/internal/circuit"
	"repro/internal/encoder"
)

// ErrUnsatisfiable marks a problem with no valid mapping: the interaction
// graph does not embed in the coupling graph (on any tried subset). Test
// with errors.Is.
var ErrUnsatisfiable = errors.New("no valid mapping exists")

// ErrBudgetExhausted marks a SAT run whose conflict budget ran out before
// any model was found — there is no best-effort result to return. Test with
// errors.Is; the portfolio's degradation ladder keys its heuristic fallback
// on it (alongside context.DeadlineExceeded).
var ErrBudgetExhausted = errors.New("exact: conflict budget exhausted before any mapping was found")

// Engine selects the reasoning backend.
type Engine int

const (
	// EngineSAT uses the paper's symbolic formulation with the CDCL solver.
	EngineSAT Engine = iota
	// EngineDP uses the dynamic-programming oracle.
	EngineDP
)

// String returns "sat" or "dp".
func (e Engine) String() string {
	if e == EngineDP {
		return "dp"
	}
	return "sat"
}

// ParseEngine converts an engine name back into an Engine. It round-trips
// with Engine.String, which is the single definition of the names — every
// layer (portfolio winners, result provenance, CLI flags) resolves through
// these two functions instead of scattered string literals.
func ParseEngine(name string) (Engine, error) {
	for _, e := range []Engine{EngineSAT, EngineDP} {
		if e.String() == name {
			return e, nil
		}
	}
	return 0, fmt.Errorf("exact: unknown engine %q (valid: %s, %s)", name, EngineSAT, EngineDP)
}

// Options configures a Solve run.
type Options struct {
	// Engine selects the backend (default EngineSAT).
	Engine Engine
	// Strategy selects the permutation-point restriction (default
	// StrategyAll, which guarantees minimality).
	Strategy Strategy
	// UseSubsets enables the physical-qubit subset optimization (paper
	// §4.1): all connected n-subsets of the architecture are tried
	// separately and the best result returned.
	UseSubsets bool
	// SAT carries SAT-engine tuning; ignored by the DP engine.
	SAT SATOptions
	// InitialMapping, when non-nil, pins the layout before the first gate
	// (extension; incompatible with UseSubsets since the pin refers to the
	// full architecture's physical indices).
	InitialMapping []int
	// Parallel widens the §4.1 fan-out within the ThreadBudget. With the
	// SAT engine the fan-out runs on ONE shared incremental instance, so
	// Parallel means bound-probe parallelism: the clause-sharing portfolio
	// (sat.Pool) widens to the budget instead of subset-level encode
	// multiplication. With the DP engine the orbit-representative
	// instances are solved concurrently on a worker pool. The cost is
	// identical to the sequential run; when several subsets tie, the
	// witness mapping may differ.
	Parallel bool
}

// DefaultOptions returns the minimality-guaranteeing configuration of §3.
func DefaultOptions() Options {
	return Options{Engine: EngineSAT, Strategy: StrategyAll}
}

// Solve maps the skeleton to the architecture under the given options and
// returns the best result found. An error is returned for malformed inputs
// or when no valid mapping exists (ErrUnsatisfiable). On a SAT-engine
// failure the accompanying Result, when non-nil, carries only the run's
// Counters — never a Solution. Cancelling the context aborts the run —
// including every in-flight §4.1 subset instance — and returns an error
// wrapping ctx.Err().
func Solve(ctx context.Context, sk *circuit.Skeleton, a *arch.Arch, opts Options) (*Result, error) {
	if sk.Len() == 0 {
		return nil, fmt.Errorf("exact: circuit has no CNOT gates; nothing to map")
	}
	pb := PermBefore(sk, opts.Strategy)
	if opts.InitialMapping != nil && opts.UseSubsets {
		return nil, fmt.Errorf("exact: InitialMapping cannot be combined with UseSubsets")
	}
	if !opts.UseSubsets || sk.NumQubits >= a.NumQubits() {
		return solveOne(ctx, sk, a, pb, opts)
	}
	if opts.Engine == EngineSAT {
		return solveSubsetsShared(ctx, sk, a, pb, opts)
	}
	return solveSubsets(ctx, sk, a, pb, opts)
}

// solveSubsets runs the §4.1 physical-qubit subset optimization for the
// non-SAT engines (the SAT engine routes to solveSubsetsShared, which fuses
// the whole fan-out into one incremental instance): one orbit representative
// per coupling-graph automorphism orbit is solved as an independent instance
// on a worker pool, and the cheapest result wins. Orbit members beyond the
// representative inherit its cost and proof (Result.OrbitHits) — an
// automorphism of the directed coupling map carries any mapping on one
// subset to an equal-cost mapping on the other.
//
// The workers share a best-cost-so-far bound (atomic): once a zero-cost
// incumbent exists the remaining representatives are skipped outright
// (Result.SubsetsPruned). The worker count comes from the ThreadBudget, so
// subset lanes and any engine-internal parallelism share one GOMAXPROCS
// budget instead of multiplying.
//
// Error handling: ErrUnsatisfiable means "this subset admits no mapping —
// try the others". A conflict-budget exhaustion before any model voids the
// minimality proof but keeps the fan-out alive: an incumbent in hand is
// returned as a best-effort result (Minimal false), and only when NO subset
// yields a model does the budget error surface — never disguised as
// unsatisfiability. Any other solveOne failure — an encode failure, an
// unknown engine — is a real error: it cancels the remaining subsets and
// surfaces verbatim.
func solveSubsets(ctx context.Context, sk *circuit.Skeleton, a *arch.Arch, pb []bool, opts Options) (*Result, error) {
	start := time.Now()
	subsets := a.ConnectedSubsets(sk.NumQubits)
	if len(subsets) == 0 {
		return nil, fmt.Errorf("exact: %w: no connected subset of %d qubits in %s", ErrUnsatisfiable, sk.NumQubits, a)
	}
	orbits := arch.SubsetOrbits(subsets, a.Automorphisms(0))
	orbitHits := len(subsets) - len(orbits)
	reps := make([][]int, len(orbits))
	for oi, orbit := range orbits {
		reps[oi] = subsets[orbit[0]]
	}

	var best atomic.Int64
	best.Store(math.MaxInt64)
	var unproven atomic.Bool // a subset's budget ran dry: optimum unconfirmed
	var subsetsPruned atomic.Int64
	results := make([]*Result, len(reps))
	errs := make([]error, len(reps))
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	solveSubset := func(i int) error {
		if best.Load() == 0 {
			subsetsPruned.Add(1)
			return nil // a zero-cost incumbent cannot be beaten; skip
		}
		sub, back := a.Restrict(reps[i])
		r, err := solveOne(runCtx, sk, sub, pb, opts)
		if err != nil {
			if errors.Is(err, ErrUnsatisfiable) {
				// No mapping on this subset beats the incumbent (or exists
				// at all); other subsets may still work.
				return nil
			}
			if errors.Is(err, ErrBudgetExhausted) {
				// The budget ran out before this subset produced any
				// model. It might still have beaten the incumbent, so the
				// minimality proof is voided — but an incumbent in hand
				// remains a valid best-effort answer, matching the
				// engine's own budget semantics; if NO subset yields a
				// model the budget error surfaces after the loop.
				unproven.Store(true)
				return nil
			}
			return err
		}
		r.SubsetBack = back
		results[i] = r
		for {
			cur := best.Load()
			if int64(r.Cost) >= cur || best.CompareAndSwap(cur, int64(r.Cost)) {
				return nil
			}
		}
	}

	workers := 1
	if opts.Parallel {
		// One budget across the fan-out: subset lanes × per-lane solver
		// threads must fit in GOMAXPROCS.
		workers = ThreadBudget{Workers: runtime.GOMAXPROCS(0), Threads: opts.SAT.Threads}.Clamp().Workers
		if workers > len(reps) {
			workers = len(reps)
		}
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				if runCtx.Err() != nil {
					continue // drain after cancellation
				}
				if err := safeSolveSubset(solveSubset, i); err != nil {
					errs[i] = err
					cancel() // a real failure aborts the remaining subsets
				}
			}
		}()
	}
	for i := range reps {
		idx <- i
	}
	close(idx)
	wg.Wait()

	var win *Result
	minimal := true
	for _, r := range results {
		if r == nil {
			continue
		}
		minimal = minimal && r.Minimal
		if win == nil || r.Cost < win.Cost {
			win = r
		}
	}

	if err := ctx.Err(); err != nil {
		// The family's deadline expired mid-fan-out. A subset that already
		// produced an incumbent makes this a best-effort aggregation, not a
		// failure — exhaustion on one subset must never discard another's
		// valid mapping (anytime mode only; historically this erred).
		if !anytimeReturn(opts.SAT, win != nil, err) {
			return nil, fmt.Errorf("exact: solve canceled: %w", err)
		}
		unproven.Store(true)
	}
	for _, err := range errs {
		// Siblings cancelled by another subset's failure report context
		// errors; the originating error is the one to surface.
		if err != nil && !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
			return nil, err
		}
	}

	if win == nil {
		if unproven.Load() {
			// Every subset either had no mapping or hit the budget; a
			// budget starvation must not masquerade as unsatisfiability.
			return nil, ErrBudgetExhausted
		}
		return nil, fmt.Errorf("exact: %w on any connected %d-subset of %s", ErrUnsatisfiable, sk.NumQubits, a)
	}
	// Minimality is claimed only when every solved instance proved its own
	// (orbit members are proven by their representative) and no subset's
	// budget ran dry. A zero-cost winner is trivially optimal whatever
	// happened elsewhere.
	win.SubsetsPruned = int(subsetsPruned.Load())
	win.OrbitHits = orbitHits
	win.Minimal = win.Cost == 0 || (minimal && !unproven.Load())
	if !win.Minimal && unproven.Load() {
		// Exhaustion elsewhere in the family: the winner's mapping is valid,
		// but an unattempted subset could in principle have been cheaper, so
		// only the trivial gap is known.
		win.markAnytime(win.Cost, -1)
	}
	win.Runtime = time.Since(start)
	return win, nil
}

// safeSolveSubset shields a fan-out worker lane from a panicking engine:
// the panic becomes that subset's error (aborting the family like any other
// real failure) instead of killing the worker goroutine and the process.
func safeSolveSubset(solve func(int) error, i int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("exact: subset %d worker panic: %v", i, r)
		}
	}()
	return solve(i)
}

func solveOne(ctx context.Context, sk *circuit.Skeleton, a *arch.Arch, pb []bool, opts Options) (*Result, error) {
	p := encoder.Problem{Skeleton: sk, Arch: a, PermBefore: pb, InitialMapping: opts.InitialMapping}
	switch opts.Engine {
	case EngineDP:
		return SolveDP(ctx, p)
	case EngineSAT:
		return SolveSAT(ctx, p, opts.SAT)
	}
	return nil, fmt.Errorf("exact: unknown engine %d", int(opts.Engine))
}
