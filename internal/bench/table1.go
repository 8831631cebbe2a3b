// Package bench is the experiment harness reproducing the paper's
// evaluation: Table 1 (all six method columns over the 25-benchmark suite)
// and the aggregate claims of §5 (IBM's heuristic ≈45% above the minimal
// total gate count, ≈104% above the minimal added-gate count F).
package bench

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"time"

	"repro/internal/arch"
	"repro/internal/circuit"
	"repro/internal/exact"
	"repro/internal/portfolio"
	"repro/internal/revlib"
	"repro/internal/solver"
)

// Column is one method's result on one benchmark.
type Column struct {
	// Cost is c: the total gate count of the mapped circuit
	// (original cost + added operations F).
	Cost int
	// Added is F: the number of added elementary operations.
	Added int
	// DeltaMin is Cost − c_min (0 for minimal methods).
	DeltaMin int
	// PermPoints is the paper's |G'| column: permutation points plus one
	// for the free initial mapping (strategy columns only; 0 otherwise).
	PermPoints int
	// Runtime is the wall-clock solving time.
	Runtime time.Duration
}

// Row is one benchmark's full Table 1 row.
type Row struct {
	Name         string
	N            int
	SingleQubit  int
	CNOTs        int
	OriginalCost int

	Minimal  Column // "Min. (Sec. 3)"
	Subsets  Column // "Perf. Opt. (Sec. 4.1)"
	Disjoint Column // "Disjoint qubits"
	Odd      Column // "Odd gates"
	Triangle Column // "Qubit triangle"
	IBM      Column // "IBM [12]" (min of HeuristicRuns runs)
	// AStar is an extension column beyond the paper: the deterministic
	// per-layer A* baseline in the family of the paper's reference [22].
	AStar Column
}

// Config tunes a Table 1 run.
type Config struct {
	// Arch is the target device (default IBM QX4, as in the paper).
	Arch *arch.Arch
	// Engine selects the exact backend for every exact column.
	// IMPORTANT: the zero value is EngineSAT (the paper's methodology),
	// which takes minutes per large row in full descent; pass
	// exact.EngineDP (as cmd/qxbench does by default) or set SeedSATWithDP
	// for routine runs.
	Engine exact.Engine
	// SeedSATWithDP, when Engine is EngineSAT, first runs the DP oracle
	// and seeds the SAT descent with its cost (2 SAT calls per instance:
	// one SAT under the bound, one UNSAT below it).
	SeedSATWithDP bool
	// HeuristicRuns is the number of heuristic seeds, keeping the best
	// (default 5, as in the paper).
	HeuristicRuns int
	// Names restricts the run to the named benchmarks (nil = full suite).
	Names []string
	// Parallel evaluates benchmark rows concurrently on a bounded worker
	// pool. Results are identical to a sequential run (rows are
	// independent).
	Parallel bool
	// Workers bounds the row worker pool (default: one worker per
	// available core). A positive value implies Parallel.
	Workers int
	// Portfolio routes every exact column through internal/portfolio:
	// heuristic-seeded SAT racing the DP oracle, with results memoized in
	// a cache shared across the whole run. The Engine and SeedSATWithDP
	// options are then ignored.
	Portfolio bool
	// NoLowerBound disables the SAT engine's admissible lower-bound
	// seeding (the -lower-bound=off escape hatch of cmd/qxbench).
	NoLowerBound bool
	// SATThreads, when > 1, solves every SAT instance with a clause-sharing
	// portfolio of that many goroutine workers (cmd/qxbench -sat-threads).
	SATThreads int

	// cache is the portfolio memo shared by every row of one run.
	cache *portfolio.Cache
}

func (c Config) withDefaults() Config {
	if c.Arch == nil {
		c.Arch = arch.QX4()
	}
	if c.HeuristicRuns <= 0 {
		c.HeuristicRuns = 5
	}
	if c.Portfolio && c.cache == nil {
		c.cache = portfolio.NewCache(0)
	}
	return c
}

// RunTable1 executes the full evaluation and returns one row per
// benchmark, in table order. Cancelling the context aborts in-flight exact
// solves promptly and fails the run with an error wrapping ctx.Err().
func RunTable1(ctx context.Context, cfg Config) ([]Row, error) {
	cfg = cfg.withDefaults()
	var selected []revlib.Benchmark
	for _, b := range revlib.Suite() {
		if len(cfg.Names) == 0 || slices.Contains(cfg.Names, b.Name) {
			selected = append(selected, b)
		}
	}
	rows := make([]Row, len(selected))
	errs := make([]error, len(selected))
	workers := 1
	if cfg.Parallel || cfg.Workers > 0 {
		workers = cfg.Workers
		if workers <= 0 {
			workers = runtime.GOMAXPROCS(0)
		}
	}
	if workers > len(selected) {
		workers = len(selected)
	}
	if workers <= 1 {
		for i, b := range selected {
			rows[i], errs[i] = RunRow(ctx, b, cfg)
		}
	} else {
		idx := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range idx {
					rows[i], errs[i] = RunRow(ctx, selected[i], cfg)
				}
			}()
		}
		for i := range selected {
			idx <- i
		}
		close(idx)
		wg.Wait()
	}
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("bench: %s: %w", selected[i].Name, err)
		}
	}
	return rows, nil
}

// RunRow evaluates all method columns (the paper's six plus the A*
// extension) on one benchmark.
func RunRow(ctx context.Context, b revlib.Benchmark, cfg Config) (Row, error) {
	cfg = cfg.withDefaults()
	row := Row{
		Name:         b.Name,
		N:            b.N,
		SingleQubit:  b.SingleQubit,
		CNOTs:        b.CNOTs,
		OriginalCost: b.OriginalCost(),
	}
	sk, err := circuit.ExtractSkeleton(b.Circuit)
	if err != nil {
		return row, err
	}

	// Every column resolves its method by name through the solver
	// registry; no engine- or strategy-specific code lives here.
	solve := func(name string, scfg solver.Config) (*solver.Plan, Column, error) {
		s, err := solver.New(name, scfg)
		if err != nil {
			return nil, Column{}, err
		}
		plan, err := s.Solve(ctx, sk, cfg.Arch)
		if err != nil {
			return nil, Column{}, fmt.Errorf("%s: %w", name, err)
		}
		return plan, Column{
			Cost:    row.OriginalCost + plan.Cost,
			Added:   plan.Cost,
			Runtime: plan.Runtime,
		}, nil
	}

	// The heuristic column doubles as the portfolio's upper bound, so it is
	// computed first — once per row rather than once per exact column.
	if _, row.IBM, err = solve(solver.NameHeuristic,
		solver.Config{HeuristicRuns: cfg.HeuristicRuns, Seed: 1}); err != nil {
		return row, err
	}

	exactCfg := func(name string) (solver.Config, error) {
		scfg := solver.Config{Engine: cfg.Engine}
		scfg.SAT.NoLowerBound = cfg.NoLowerBound
		scfg.SAT.Threads = cfg.SATThreads
		if cfg.Portfolio {
			scfg.Portfolio = true
			scfg.Cache = cfg.cache
			scfg.UpperBound = row.IBM.Added
			if scfg.UpperBound == 0 {
				scfg.UpperBound = -1 // bounded already: F = 0, skip re-bounding
			}
			return scfg, nil
		}
		if cfg.Engine == exact.EngineSAT && cfg.SeedSATWithDP {
			_, dp, err := solve(name, solver.Config{Engine: exact.EngineDP})
			if err != nil {
				return scfg, err
			}
			scfg.SAT.StartBound = dp.Added
		}
		return scfg, nil
	}
	for _, col := range []struct {
		name string
		dst  *Column
	}{
		{solver.NameExact, &row.Minimal},
		{solver.NameExactSubsets, &row.Subsets},
		{solver.NameDisjoint, &row.Disjoint},
		{solver.NameOdd, &row.Odd},
		{solver.NameTriangle, &row.Triangle},
	} {
		// The column runtime is the method's full cost, including the DP
		// seeding solve of SeedSATWithDP mode — not just the final solve.
		start := time.Now()
		scfg, err := exactCfg(col.name)
		if err != nil {
			return row, err
		}
		plan, c, err := solve(col.name, scfg)
		if err != nil {
			return row, err
		}
		c.Runtime = time.Since(start)
		c.PermPoints = plan.PermPoints + 1 // paper counts the free initial mapping
		*col.dst = c
	}

	if _, row.AStar, err = solve(solver.NameAStar, solver.Config{Lookahead: 0.5}); err != nil {
		return row, err
	}

	cmin := row.Minimal.Cost
	for _, col := range []*Column{&row.Minimal, &row.Subsets, &row.Disjoint, &row.Odd, &row.Triangle, &row.IBM, &row.AStar} {
		col.DeltaMin = col.Cost - cmin
	}
	return row, nil
}

// Stats aggregates the headline claims of paper §5 over a set of rows.
type Stats struct {
	Rows int
	// AvgIBMAboveMinTotal is the average of (IBM cost − c_min)/c_min — the
	// paper reports ≈45 % on the original RevLib circuits.
	AvgIBMAboveMinTotal float64
	// AvgIBMAboveMinAdded is the average of (IBM F − F_min)/F_min over
	// rows with F_min > 0 — the paper reports ≈104 %.
	AvgIBMAboveMinAdded float64
	// MaxIBMAboveMinAdded is the worst row's added-gate overshoot.
	MaxIBMAboveMinAdded float64
	// StrategyMinimalRows counts rows where each §4.2 strategy matched the
	// minimum (paper: disjoint qubits always minimal on the suite).
	DisjointMinimal, OddMinimal, TriangleMinimal int
	// AvgAStarAboveMinAdded is the A* extension baseline's average
	// added-gate overshoot over rows with F_min > 0.
	AvgAStarAboveMinAdded float64
}

// Summary computes the aggregate statistics.
func Summary(rows []Row) Stats {
	var s Stats
	addedRows := 0
	for _, r := range rows {
		s.Rows++
		s.AvgIBMAboveMinTotal += float64(r.IBM.Cost-r.Minimal.Cost) / float64(r.Minimal.Cost)
		if r.Minimal.Added > 0 {
			ratio := float64(r.IBM.Added-r.Minimal.Added) / float64(r.Minimal.Added)
			s.AvgIBMAboveMinAdded += ratio
			if ratio > s.MaxIBMAboveMinAdded {
				s.MaxIBMAboveMinAdded = ratio
			}
			s.AvgAStarAboveMinAdded += float64(r.AStar.Added-r.Minimal.Added) / float64(r.Minimal.Added)
			addedRows++
		}
		if r.Disjoint.DeltaMin == 0 {
			s.DisjointMinimal++
		}
		if r.Odd.DeltaMin == 0 {
			s.OddMinimal++
		}
		if r.Triangle.DeltaMin == 0 {
			s.TriangleMinimal++
		}
	}
	if s.Rows > 0 {
		s.AvgIBMAboveMinTotal /= float64(s.Rows)
	}
	if addedRows > 0 {
		s.AvgIBMAboveMinAdded /= float64(addedRows)
		s.AvgAStarAboveMinAdded /= float64(addedRows)
	}
	return s
}

// FormatTable renders rows in the layout of the paper's Table 1.
func FormatTable(rows []Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %2s %9s | %5s %8s | %5s %8s | %4s %10s | %4s %10s | %4s %10s | %10s\n",
		"Benchmark", "n", "orig", "cmin", "t", "c4.1", "t", "|G'|", "disjoint", "|G'|", "odd", "|G'|", "triangle", "IBM")
	// (An extension A* column is accumulated in Summary; rows keep the
	// paper's exact column layout.)
	b.WriteString(strings.Repeat("-", 132) + "\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s %2d %3d+%3d=%3d | %5d %8s | %5d %8s | %4d %4d (%+3d) | %4d %4d (%+3d) | %4d %4d (%+3d) | %4d (%+3d)\n",
			r.Name, r.N, r.SingleQubit, r.CNOTs, r.OriginalCost,
			r.Minimal.Cost, shortDur(r.Minimal.Runtime),
			r.Subsets.Cost, shortDur(r.Subsets.Runtime),
			r.Disjoint.PermPoints, r.Disjoint.Cost, r.Disjoint.DeltaMin,
			r.Odd.PermPoints, r.Odd.Cost, r.Odd.DeltaMin,
			r.Triangle.PermPoints, r.Triangle.Cost, r.Triangle.DeltaMin,
			r.IBM.Cost, r.IBM.DeltaMin)
	}
	return b.String()
}

// FormatSummary renders the aggregate claims.
func FormatSummary(s Stats) string {
	var b strings.Builder
	fmt.Fprintf(&b, "benchmarks: %d\n", s.Rows)
	fmt.Fprintf(&b, "IBM heuristic above minimum, total gate count: %+.1f%% (paper: ≈45%%)\n", 100*s.AvgIBMAboveMinTotal)
	fmt.Fprintf(&b, "IBM heuristic above minimum, added gates (F):  %+.1f%% (paper: ≈104%%)\n", 100*s.AvgIBMAboveMinAdded)
	fmt.Fprintf(&b, "worst row, added gates:                        %+.1f%%\n", 100*s.MaxIBMAboveMinAdded)
	fmt.Fprintf(&b, "A* baseline above minimum, added gates (F):    %+.1f%% (extension; not in the paper)\n", 100*s.AvgAStarAboveMinAdded)
	fmt.Fprintf(&b, "rows where strategy matched the minimum: disjoint %d/%d, odd %d/%d, triangle %d/%d\n",
		s.DisjointMinimal, s.Rows, s.OddMinimal, s.Rows, s.TriangleMinimal, s.Rows)
	return b.String()
}

func shortDur(d time.Duration) string {
	switch {
	case d < time.Millisecond:
		return fmt.Sprintf("%dµs", d.Microseconds())
	case d < time.Second:
		return fmt.Sprintf("%dms", d.Milliseconds())
	}
	return fmt.Sprintf("%.1fs", d.Seconds())
}
