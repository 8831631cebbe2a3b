package exact

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"repro/internal/arch"
	"repro/internal/circuit"
	"repro/internal/revlib"
)

// TestAnytimeCancelNeverSoftened: anytime mode softens deadline expiry
// only. A caller-initiated cancel must keep erroring with context.Canceled
// — single instance and §4.1 fan-out alike — so an operator abort never
// comes back disguised as a degraded answer.
func TestAnytimeCancelNeverSoftened(t *testing.T) {
	ctx, cancel := context.WithCancel(bg)
	cancel()
	_, err := Solve(ctx, circuit.Figure1b(), arch.QX4(),
		Options{Engine: EngineSAT, SAT: SATOptions{Anytime: true}})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("single instance: err = %v, want context.Canceled", err)
	}
	_, err = Solve(ctx, randomSkeleton(3, 4, 12), arch.QX5(),
		Options{Engine: EngineSAT, UseSubsets: true, SAT: SATOptions{Anytime: true}})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("subset fan-out: err = %v, want context.Canceled", err)
	}
}

// TestAnytimeBudgetBracketsOptimum: a conflict budget that truncates the
// descent after a first model yields a Degraded incumbent whose
// [Cost−BoundGap, Cost] bracket contains the true optimum (proven by the
// DP oracle) and whose solution still materializes into valid ops.
func TestAnytimeBudgetBracketsOptimum(t *testing.T) {
	a := arch.QX4()
	found := false
	for seed := int64(0); seed < 8 && !found; seed++ {
		sk := randomSkeleton(seed, 4, 10)
		ref, err := Solve(bg, sk, a, Options{Engine: EngineDP})
		if err != nil {
			t.Fatal(err)
		}
		for budget := int64(1); budget <= 1<<14; budget *= 2 {
			r, err := Solve(bg, sk, a, Options{Engine: EngineSAT,
				SAT: SATOptions{MaxConflicts: budget, Anytime: true}})
			if err != nil {
				if !errors.Is(err, ErrBudgetExhausted) {
					t.Fatalf("seed %d budget %d: err = %v, want ErrBudgetExhausted", seed, budget, err)
				}
				continue // no model before exhaustion; try a bigger budget
			}
			if r.Minimal {
				if r.Degraded {
					t.Errorf("seed %d budget %d: proven-minimal result marked degraded", seed, budget)
				}
				if r.Cost != ref.Cost {
					t.Errorf("seed %d budget %d: minimal cost %d != oracle %d", seed, budget, r.Cost, ref.Cost)
				}
				break // larger budgets only finish the proof sooner
			}
			found = true
			if !r.Degraded {
				t.Errorf("seed %d budget %d: truncated result not marked Degraded", seed, budget)
			}
			if r.BoundGap < 0 {
				t.Errorf("seed %d budget %d: negative BoundGap %d", seed, budget, r.BoundGap)
			}
			if r.Cost < ref.Cost {
				t.Errorf("seed %d budget %d: incumbent cost %d undercuts the optimum %d", seed, budget, r.Cost, ref.Cost)
			}
			if r.Cost-r.BoundGap > ref.Cost {
				t.Errorf("seed %d budget %d: bracket [%d, %d] excludes the optimum %d",
					seed, budget, r.Cost-r.BoundGap, r.Cost, ref.Cost)
			}
			if _, err := r.Ops(sk); err != nil {
				t.Errorf("seed %d budget %d: degraded result does not materialize: %v", seed, budget, err)
			}
			break
		}
	}
	if !found {
		t.Fatal("no budget truncated the descent after a first model on this corpus")
	}
}

// pollDeadlineCtx is a context whose deadline passes on a poll count
// instead of a clock: Err returns context.DeadlineExceeded from poll
// number expireAt on (1-based; 0 never expires) and nil before, and it
// counts its polls. The single-thread §3 solve path only polls Err, never
// Done, so a run under it is deterministic.
type pollDeadlineCtx struct {
	context.Context
	expireAt int64
	polls    atomic.Int64
}

func newPollDeadline(expireAt int64) *pollDeadlineCtx {
	return &pollDeadlineCtx{Context: context.Background(), expireAt: expireAt}
}

func (c *pollDeadlineCtx) Err() error {
	if n := c.polls.Add(1); c.expireAt > 0 && n >= c.expireAt {
		return context.DeadlineExceeded
	}
	return nil
}

// TestAnytimeDeadlineIncumbent is the anytime acceptance check on a real
// Table-1 instance: between "too short for any model" (an error) and "long
// enough for the full proof" (the known minimal cost) there is a window
// where the deadline fires mid-descent and the engine must hand back its
// incumbent — Degraded, non-minimal, bracket containing the optimum —
// instead of erroring. The deadline is a poll count (pollDeadlineCtx), so
// the bisection below lands on the same run on every machine; it verifies
// every run it makes against the trichotomy. Outcomes run error → degraded
// → minimal as the deadline grows, so a bisection that keeps an erroring
// lower end and a completing upper end must hit a non-empty window.
func TestAnytimeDeadlineIncumbent(t *testing.T) {
	bm, err := revlib.SuiteByName("3_17_13")
	if err != nil {
		t.Fatal(err)
	}
	sk, err := circuit.ExtractSkeleton(bm.Circuit)
	if err != nil {
		t.Fatal(err)
	}
	a := arch.QX4()

	counter := newPollDeadline(0)
	ref, err := Solve(counter, sk, a, Options{Engine: EngineSAT, SAT: SATOptions{Anytime: true}})
	if err != nil {
		t.Fatal(err)
	}
	if !ref.Minimal {
		t.Fatalf("unbounded reference run not minimal (cost %d)", ref.Cost)
	}

	// Invariant: a deadline at poll lo errors (the first poll leaves no
	// time for a model), one at poll hi completes.
	lo, hi := int64(1), counter.polls.Load()+1
	for hi-lo > 1 {
		d := (lo + hi) / 2
		r, err := Solve(newPollDeadline(d), sk, a, Options{Engine: EngineSAT, SAT: SATOptions{Anytime: true}})
		switch {
		case err != nil:
			// Too short for even one model: exactly the historical failure
			// mode, still correct when there is nothing to salvage.
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("deadline at poll %d: err = %v, want context.DeadlineExceeded", d, err)
			}
			lo = d
		case r.Minimal:
			if r.Cost != ref.Cost {
				t.Fatalf("deadline at poll %d: minimal cost %d != reference %d", d, r.Cost, ref.Cost)
			}
			hi = d
		default:
			// The anytime window: a valid incumbent under a blown deadline.
			if !r.Degraded {
				t.Errorf("deadline at poll %d: non-minimal deadline result not marked Degraded", d)
			}
			if r.Cost < ref.Cost {
				t.Errorf("deadline at poll %d: incumbent cost %d undercuts the optimum %d", d, r.Cost, ref.Cost)
			}
			if r.Cost-r.BoundGap > ref.Cost {
				t.Errorf("deadline at poll %d: bracket [%d, %d] excludes the optimum %d",
					d, r.Cost-r.BoundGap, r.Cost, ref.Cost)
			}
			if _, err := r.Ops(sk); err != nil {
				t.Errorf("deadline at poll %d: degraded result does not materialize: %v", d, err)
			}
			return
		}
	}
	t.Fatalf("no deadline between poll %d (errors) and poll %d (completes) left an incumbent", lo, hi)
}

// TestSubsetFanoutExhaustionKeepsIncumbent is the §4.1 best-effort
// aggregation regression: when the family's conflict budget runs out
// mid-fan-out after some subset already produced a mapping, the fan-out
// must aggregate that incumbent into a Degraded result instead of
// discarding it — exhaustion on one subset must never kill the whole
// family. The window between "no model yet" (an error) and "the full
// proof" is found on SATOptions.MaxConflicts: budget exhaustion with a
// model always degrades, and on one SAT thread the search is deterministic,
// so the search below lands on the same budget on every machine. The
// budget doubles until a run returns, then bisects towards the window. The
// fan-out optimum comes from the DP oracle. (The deadline path is covered
// by TestAnytimeDeadlineIncumbent.)
func TestSubsetFanoutExhaustionKeepsIncumbent(t *testing.T) {
	a := arch.QX5()
	sk := randomSkeleton(11, 4, 14)

	ref, err := Solve(bg, sk, a, Options{Engine: EngineDP, UseSubsets: true})
	if err != nil {
		t.Fatal(err)
	}

	// Invariant: budget lo errors and budget hi proves minimality, where
	// hi == 0 means no run has returned yet.
	lo, hi := int64(0), int64(0)
	for budget := int64(1); budget <= 1<<20; {
		r, err := Solve(bg, sk, a, Options{Engine: EngineSAT, UseSubsets: true,
			SAT: SATOptions{Anytime: true, MaxConflicts: budget}})
		switch {
		case err != nil:
			if !errors.Is(err, ErrBudgetExhausted) {
				t.Fatalf("budget %d: err = %v, want budget exhaustion", budget, err)
			}
			lo = budget
		case r.Minimal:
			if r.Cost != ref.Cost {
				t.Fatalf("budget %d: minimal cost %d != reference %d", budget, r.Cost, ref.Cost)
			}
			hi = budget
		default:
			if !r.Degraded {
				t.Errorf("budget %d: non-minimal fan-out result not marked Degraded", budget)
			}
			if r.Cost < ref.Cost {
				t.Errorf("budget %d: family incumbent %d undercuts the fan-out optimum %d", budget, r.Cost, ref.Cost)
			}
			if _, err := r.Ops(sk); err != nil {
				t.Errorf("budget %d: degraded fan-out result does not materialize: %v", budget, err)
			}
			return
		}
		if hi == 0 {
			budget *= 2
			continue
		}
		if hi-lo <= 1 {
			break
		}
		budget = (lo + hi) / 2
	}
	t.Fatalf("no conflict budget truncated the fan-out after a first model (largest failing budget %d, smallest proving %d)", lo, hi)
}
