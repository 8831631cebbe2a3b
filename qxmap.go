// Package qxmap maps quantum circuits to IBM QX architectures using the
// minimal number of SWAP and H operations — a from-scratch Go
// implementation of Wille, Burgholzer and Zulehner (DAC 2019).
//
// The mapping problem: logical qubits of a circuit must be assigned to
// physical qubits of a device whose directed coupling map restricts which
// CNOTs are executable. The assignment may change mid-circuit by inserting
// SWAP operations (7 elementary gates each) and CNOT directions may be
// reversed with 4 H gates. This package finds assignments minimizing the
// total number of added operations
//
//	F = 7·(#SWAPs) + 4·(#direction switches)
//
// by encoding the problem symbolically and solving it with a built-in CDCL
// SAT solver (the paper's methodology), or with an independent exact
// dynamic-programming engine. The performance improvements of the paper —
// connected physical-qubit subsets (§4.1) and the disjoint-qubits /
// odd-gates / qubit-triangle permutation restrictions (§4.2) — are exposed
// as Methods, alongside a Qiskit-style stochastic heuristic baseline.
//
// Quick start:
//
//	m, _ := qxmap.NewMapper()
//	c := qxmap.NewCircuit(4)
//	c.AddH(1)
//	c.AddCNOT(0, 1)
//	res, err := m.Map(context.Background(), c, qxmap.QX4())
//	// res.Mapped is an equivalent circuit executable on IBM QX4;
//	// res.Cost is the (minimal) number of added elementary operations.
//
// # Client API
//
// The Mapper type is the unit of configuration and isolation: NewMapper
// builds an instance from functional options (method, engine, portfolio
// cache size, worker bound, default timeout, verify policy), and each
// instance owns its portfolio cache and its bounded async scheduler.
// Synchronous calls go through Mapper.Map / Mapper.MapWith / Mapper.MapBatch;
// asynchronous jobs through Mapper.Submit, which returns a JobHandle with
// Wait, Done, Cancel and Stats. The package-level Map, MapContext and
// MapBatch functions remain as deprecated thin wrappers over a
// lazily-initialized default instance (Default), preserving the historical
// process-wide shared-cache behavior.
//
// # Pipeline
//
// A Map call is an explicit staged pipeline: skeleton extraction → solve →
// materialize → verify → optimize. The solve stage resolves the selected
// Method by name through the internal/solver registry, so every method —
// and any backend registered in the future — flows through the same code
// path; there is no per-method dispatch in this package. Result.Stats
// reports per-stage wall-clock durations plus solver-level counters (cache
// hit, CDCL solves/conflicts, engine provenance).
//
// Batches of independent mapping jobs run concurrently through MapBatch: a
// bounded worker pool with per-job deadlines and fail-soft error
// collection (see batch.go).
//
// # Portfolio solving
//
// Options{Portfolio: true} routes the exact methods through the portfolio
// layer (internal/portfolio): the stochastic heuristic first derives a
// cheap upper bound that seeds the SAT engine's cost descent, then the SAT
// and DP engines race concurrently — the first valid minimal result wins
// and the loser is cancelled. Results are memoized in the Mapper
// instance's LRU cache keyed by a canonical hash of (skeleton,
// architecture, strategy), so repeated Map calls on identical instances
// return immediately (Result.CacheHit reports this). The winning backend
// is echoed in Result.Engine. Two Mapper instances never share cache
// entries; the package-level wrappers all share the default instance's
// cache.
//
// # Context and cancellation
//
// MapContext threads a context.Context through the whole solve stack: the
// symbolic encoder, the CDCL solver (checked at every restart boundary),
// the DP engine (checked at every frame transition), the §4.1 parallel
// subset fan-out, and the heuristic mappers (checked between layers,
// restarts and SABRE passes). Cancelling the context — or exceeding a
// deadline set with context.WithTimeout — aborts a solve promptly and
// returns an error wrapping ctx.Err(). Map is shorthand for
// MapContext(context.Background(), …).
package qxmap

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/arch"
	"repro/internal/circuit"
	"repro/internal/exact"
	"repro/internal/faultinject"
	"repro/internal/opt"
	"repro/internal/perm"
	"repro/internal/sim"
	"repro/internal/solver"
	"repro/internal/verify"
)

// Circuit is the quantum-circuit IR: a gate sequence over logical qubits.
type Circuit = circuit.Circuit

// Gate is one quantum operation.
type Gate = circuit.Gate

// Architecture is a quantum device: physical qubits plus a directed
// coupling map (paper Definition 2).
type Architecture = arch.Arch

// Mapping assigns logical qubits to physical qubits: m[j] is the physical
// qubit holding logical qubit j.
type Mapping = perm.Mapping

// NewCircuit returns an empty circuit over n logical qubits.
func NewCircuit(n int) *Circuit { return circuit.New(n) }

// Figure1a returns the paper's running example circuit (Fig. 1a).
func Figure1a() *Circuit { return circuit.Figure1a() }

// Method selects the mapping algorithm.
type Method int

const (
	// MethodExact is the paper's §3 formulation: permutations allowed
	// before every gate, guaranteed minimal.
	MethodExact Method = iota
	// MethodExactSubsets adds the §4.1 physical-qubit subset optimization
	// (still minimal on the paper's benchmark set).
	MethodExactSubsets
	// MethodDisjoint restricts permutation points to disjoint-qubit
	// cluster boundaries (§4.2); close to minimal.
	MethodDisjoint
	// MethodOdd allows permutations before odd-indexed gates only (§4.2).
	MethodOdd
	// MethodTriangle allows permutations only between ≤3-qubit clusters
	// (§4.2).
	MethodTriangle
	// MethodHeuristic is the Qiskit-style stochastic baseline ("IBM [12]"
	// in Table 1).
	MethodHeuristic
	// MethodAStar is a deterministic per-layer A*-search baseline in the
	// family of the paper's reference [22] (Zulehner, Paler, Wille): each
	// stuck layer is repaired with a provably SWAP-minimal sequence,
	// optionally biased by lookahead into the next layer.
	MethodAStar
	// MethodSabre runs SABRE-style forward/backward passes (the paper's
	// reference [13], Li, Ding, Xie) around the A* mapper to refine the
	// initial layout.
	MethodSabre
)

// methodNames maps each Method constant to its registry name in
// internal/solver, in constant order. The built-in registrations use the
// same order, so Method(i) and Methods()[i] agree for the eight built-ins
// (asserted by tests).
var methodNames = [...]string{
	MethodExact:        solver.NameExact,
	MethodExactSubsets: solver.NameExactSubsets,
	MethodDisjoint:     solver.NameDisjoint,
	MethodOdd:          solver.NameOdd,
	MethodTriangle:     solver.NameTriangle,
	MethodHeuristic:    solver.NameHeuristic,
	MethodAStar:        solver.NameAStar,
	MethodSabre:        solver.NameSabre,
}

// String returns the method's short name — the key it is registered under
// in the solver registry.
func (m Method) String() string {
	if m >= 0 && int(m) < len(methodNames) {
		return methodNames[m]
	}
	return fmt.Sprintf("method(%d)", int(m))
}

// Methods returns the canonical method names in registry order — the valid
// inputs to ParseMethod and the -method flags of the CLIs.
func Methods() []string { return solver.Methods() }

// ParseMethod converts a short name into a Method. The scan over the
// ordered name table is deterministic, and the error lists every valid
// name.
func ParseMethod(name string) (Method, error) {
	for i, n := range methodNames {
		if n == name {
			return Method(i), nil
		}
	}
	return 0, fmt.Errorf("qxmap: unknown method %q (valid: %s)", name, strings.Join(Methods(), ", "))
}

// Engine selects the exact solving backend. It is an alias of the internal
// engine type, so the name↔value mapping ("sat", "dp") has exactly one
// definition that every layer — portfolio winners, result provenance, CLI
// flags — round-trips through.
type Engine = exact.Engine

const (
	// EngineSAT uses the symbolic formulation + CDCL solver (the paper's
	// methodology; default).
	EngineSAT = exact.EngineSAT
	// EngineDP uses the dynamic-programming exact oracle (faster on the
	// small IBM QX devices; same results).
	EngineDP = exact.EngineDP
)

// ParseEngine converts an engine name ("sat" or "dp") into an Engine,
// round-tripping with Engine.String().
func ParseEngine(name string) (Engine, error) { return exact.ParseEngine(name) }

// Options configures Map.
type Options struct {
	// Method selects the algorithm (default MethodExact).
	Method Method
	// Engine selects the exact backend (default EngineSAT); ignored by
	// MethodHeuristic.
	Engine Engine
	// HeuristicRuns is the number of seeds for MethodHeuristic, keeping
	// the best (default 5, as in the paper's evaluation).
	HeuristicRuns int
	// Seed seeds the heuristic's random source.
	Seed int64
	// Lookahead weighs the next layer into MethodAStar's search heuristic
	// (customary value 0.5; 0 disables).
	Lookahead float64
	// SkipVerify disables the built-in structural + GF(2) verification of
	// the mapped circuit (on by default; full unitary verification is
	// additionally run for small instances).
	SkipVerify bool
	// SATStartBound, when positive, seeds the SAT engine's descent with a
	// known upper bound on F. The bound is enforced as a guard assumption
	// on the incremental solver; a bound that undercuts the instance's
	// optimum is relaxed in place rather than failing the solve.
	SATStartBound int
	// SATBinaryDescent switches the SAT engine to binary bound search.
	// Both descent modes encode the instance once and probe bounds via
	// assumptions (Result.Stats.SATEncodes reports the encode count).
	SATBinaryDescent bool
	// SATMaxConflicts bounds each SAT call; 0 = unlimited. Exhausting the
	// budget returns the best mapping found; Result.Minimal then reports
	// whether the truncated descent still managed to prove minimality.
	SATMaxConflicts int64
	// SATNoLowerBound disables the admissible lower bound the SAT engine
	// otherwise derives from coupling-graph distances to seed its descent
	// (Stats.LowerBound) — the library face of the CLIs' -lower-bound=off
	// escape hatch. Costs are unaffected; only the probe count grows.
	SATNoLowerBound bool
	// SATThreads, when > 1, runs every SAT engine solve as a clause-sharing
	// portfolio of that many diversified goroutine workers over the one
	// incremental encoding (the CLIs' -sat-threads flag). The cost and
	// minimality proof are unchanged; the witness mapping may differ
	// between runs. Default (≤ 1) keeps the deterministic single solver.
	SATThreads int
	// InitialLayout, when non-nil, pins the logical→physical layout at
	// the start of the circuit (exact methods route away from it at SWAP
	// cost if beneficial; the heuristic starts its search from it).
	// Incompatible with MethodExactSubsets and the §4.2 methods, which
	// renumber physical qubits internally.
	InitialLayout []int
	// Optimize runs the post-mapping peephole optimizer on the mapped
	// circuit (cancellation of adjacent inverse pairs, rotation merging).
	// The paper's cost F is reported for the unoptimized circuit — its
	// cost model deliberately excludes this step (§3, footnote 2) — but
	// the returned Mapped circuit is the optimized one, still verified.
	Optimize bool
	// Portfolio routes exact methods through the portfolio layer: the
	// stochastic heuristic seeds the SAT descent with an upper bound, the
	// SAT and DP engines race with first-valid-minimal-wins semantics, and
	// results are memoized in the Mapper instance's LRU cache (the default
	// instance's cache for the package-level wrappers). The Engine option
	// is then ignored (the winning engine is reported in Result.Engine);
	// heuristic methods are unaffected.
	Portfolio bool
	// CostModel replaces the paper's uniform 7/4 objective with a weighted
	// one: per-edge SWAP weights and per-direction switch weights (e.g.
	// from LoadCalibration). nil keeps the paper model — and when the
	// architecture itself already carries a model (Architecture.Cost), that
	// model is used; a non-nil CostModel here overrides it for this call.
	// Every method — exact, §4.1/§4.2 restricted and heuristic — optimizes
	// and reports Result.Cost under the effective model, and portfolio
	// cache keys include it, so runs under different models never alias.
	CostModel *CostModel
	// Ladder enables graceful degradation for exact methods: a solve cut
	// off by its context deadline (or SAT conflict budget) returns the
	// best valid plan discovered instead of an error. The rungs, in
	// order: the full exact solve; the SAT descent's anytime incumbent —
	// a valid, verified, non-minimal plan with Stats.Degradation
	// "anytime" and Stats.BoundGap bracketing the optimum; a heuristic
	// fallback plan (Stats.Degradation "heuristic") when exhaustion
	// struck before any model existed. With generous deadlines the ladder
	// is a strict no-op: costs, probes and encodes are identical to a run
	// without it. Degraded results never enter the caches. Off by
	// default; heuristic methods ignore it.
	Ladder bool
}

// SolveCounters is the SAT engine's work behind a solve. It is an alias of
// the exact engine's counter struct, so each counter is declared once and
// Stats and StatsJSON embed the same fields.
type SolveCounters = exact.Counters

// Stats instruments one trip through the mapping pipeline: a wall-clock
// duration per stage plus solver-level counters.
type Stats struct {
	// SkeletonTime is stage 1: CNOT-skeleton extraction and validation.
	SkeletonTime time.Duration
	// SolveTime is stage 2: the registry-resolved solver run.
	SolveTime time.Duration
	// MaterializeTime is stage 3: expanding the op stream into gates.
	MaterializeTime time.Duration
	// VerifyTime is stage 4 (and the post-optimize re-check of stage 5):
	// structural, GF(2) and small-instance unitary verification.
	VerifyTime time.Duration
	// OptimizeTime is stage 5: peephole optimization (when enabled).
	OptimizeTime time.Duration
	// Solver is the registry name the solve stage resolved ("exact",
	// "sabre", …; "none" for circuits without CNOTs).
	Solver string
	// Engine is the backend provenance reported by the solver: "sat" or
	// "dp" for exact methods (round-tripping with ParseEngine), the
	// method name for heuristics.
	Engine string
	// CacheHit mirrors Result.CacheHit; CacheTier names the tier that
	// served the hit ("memory" for the in-process LRU, "disk" for the
	// persistent store; empty when the instance was solved).
	CacheHit  bool
	CacheTier string
	// SolveCounters is the solve's SAT work (zero for heuristic methods
	// and cache hits).
	SolveCounters
	// Degradation names the ladder rung that produced the plan when
	// Options.Ladder degraded the solve ("anytime" or "heuristic"; ""
	// for a full solve), and BoundGap brackets an anytime plan's
	// distance from the optimum: the true minimum lies in
	// [Cost−BoundGap, Cost]. Both zero-valued on the happy path.
	Degradation string
	BoundGap    int
}

// Result is the outcome of a Map call.
type Result struct {
	// Mapped is the executable circuit over the architecture's physical
	// qubits: it satisfies all coupling constraints and is equivalent to
	// the input under InitialLayout/FinalLayout.
	Mapped *Circuit
	// Cost is F: the number of elementary operations added (7 per SWAP,
	// 4 per direction switch). For exact methods this is minimal (or
	// close-to-minimal under §4.2 restrictions).
	Cost int
	// Swaps and Switches break the cost down.
	Swaps    int
	Switches int
	// InitialLayout and FinalLayout give the logical→physical assignment
	// before the first and after the last gate.
	InitialLayout Mapping
	FinalLayout   Mapping
	// PermPoints is |G'|, the number of in-circuit permutation points the
	// method considered (exact methods only; paper's |G'| column counts
	// one more for the free initial mapping).
	PermPoints int
	// Minimal reports whether Cost is guaranteed minimal: the method's
	// formulation admits the optimum and the run proved it (a
	// budget-truncated SAT descent that never reached UNSAT reports
	// false; one that completed its proof within the budget reports
	// true).
	Minimal bool
	// GatesOptimizedAway counts gates removed by the peephole optimizer
	// (only when Options.Optimize was set).
	GatesOptimizedAway int
	// CacheHit reports that the solution was served from the result cache
	// (in Portfolio mode, or whenever the Mapper has a persistent store
	// attached); CacheTier names the serving tier — "memory" for the
	// in-process LRU, "disk" for the persistent store — and is empty when
	// the instance was solved.
	CacheHit  bool
	CacheTier string
	// Stats reports per-stage pipeline timings and solver counters.
	Stats Stats
	// CostModel is the effective non-default cost model Cost was optimized
	// under: Options.CostModel when given, else the model attached to the
	// architecture. nil when the run used the paper's uniform 7/4
	// objective (including uniform models semantically equal to it).
	CostModel *CostModel
	// Method and Engine echo the configuration; Runtime is wall-clock
	// solving plus materialization time.
	Method  Method
	Engine  Engine
	Runtime time.Duration
}

// TotalGates returns the gate count of the mapped circuit.
func (r *Result) TotalGates() int { return r.Mapped.Len() }

// Map maps the circuit onto the architecture. The input must be
// elementary (single-qubit gates and CNOTs only — decompose SWAP/MCT gates
// first, e.g. with the revlib substrate or cmd/qxsynth). It is shorthand
// for MapContext with context.Background().
//
// Deprecated: Map delegates to the process-wide default Mapper (see
// Default), whose portfolio cache is shared by every caller in the
// process. New code should create an instance with NewMapper and call
// Mapper.Map or Mapper.MapWith for isolated caches and per-instance
// tuning.
func Map(c *Circuit, a *Architecture, opts Options) (*Result, error) {
	return MapContext(context.Background(), c, a, opts)
}

// MapContext maps the circuit under deadline/cancellation control.
//
// Deprecated: MapContext delegates to the process-wide default Mapper (see
// Default). New code should use NewMapper and Mapper.MapWith.
func MapContext(ctx context.Context, c *Circuit, a *Architecture, opts Options) (*Result, error) {
	return Default().MapWith(ctx, c, a, opts)
}

// mapPipeline runs the staged mapping pipeline — skeleton extraction, the
// registry-resolved solve, materialization, verification and optional
// peephole optimization — under deadline/cancellation control. The context
// is threaded through the encoder, both exact engines, the §4.1 subset
// fan-out and the heuristic mappers; a cancelled solve aborts promptly and
// returns an error that wraps ctx.Err(). Per-stage timings are reported in
// Result.Stats. Portfolio-mode solves memoize into the instance's cache;
// an attached store (WithStore) persists exact results across restarts.
// Every trip updates the instance's cumulative Totals and in-flight gauge.
func (m *Mapper) mapPipeline(ctx context.Context, c *Circuit, a *Architecture, opts Options) (*Result, error) {
	m.inflight.Add(1)
	defer m.inflight.Add(-1)
	res, err := m.safeRunPipeline(ctx, c, a, opts)
	m.recordTotals(res, err)
	return res, err
}

// safeRunPipeline converts a panic anywhere in the pipeline — a solver
// bug, a materialization invariant violation — into an ordinary error:
// one poisoned request fails itself, never the batch worker, the
// scheduler goroutine, or the process. The faultinject point lets chaos
// tests drive this boundary (and inject pipeline latency) on demand.
func (m *Mapper) safeRunPipeline(ctx context.Context, c *Circuit, a *Architecture, opts Options) (res *Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, fmt.Errorf("qxmap: mapping panicked: %v", r)
		}
	}()
	if err := faultinject.Hit("qxmap.pipeline"); err != nil {
		return nil, fmt.Errorf("qxmap: %w", err)
	}
	return m.runPipeline(ctx, c, a, opts)
}

// runPipeline is the pipeline proper, free of instance accounting.
func (m *Mapper) runPipeline(ctx context.Context, c *Circuit, a *Architecture, opts Options) (*Result, error) {
	start := time.Now()
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("qxmap: canceled: %w", err)
	}
	res := &Result{Method: opts.Method, Engine: opts.Engine}
	if eff := opts.CostModel; eff != nil || a.Cost() != nil {
		if eff == nil {
			eff = a.Cost()
		}
		if !eff.IsPaper() {
			res.CostModel = eff.Clone()
		}
	}

	// Stage 1: skeleton — extract the CNOT structure (paper Def. 4) and
	// validate the instance.
	st := time.Now()
	sk, err := circuit.ExtractSkeleton(c)
	if err != nil {
		return nil, err
	}
	if c.NumQubits() > a.NumQubits() {
		return nil, fmt.Errorf("qxmap: circuit has %d qubits, %s offers %d", c.NumQubits(), a, a.NumQubits())
	}
	res.Stats.SkeletonTime = time.Since(st)

	// Stage 2: solve — resolve the method by name through the solver
	// registry and run it.
	st = time.Now()
	plan, err := m.solvePlan(ctx, sk, a, opts)
	if err != nil {
		return nil, err
	}
	res.Stats.SolveTime = time.Since(st)
	res.Cost = plan.Cost
	res.Swaps = plan.Swaps
	res.Switches = plan.Switches
	res.PermPoints = plan.PermPoints
	res.Minimal = plan.Minimal
	res.CacheHit = plan.CacheHit
	res.CacheTier = plan.CacheTier
	res.Stats.Solver = opts.Method.String()
	if sk.Len() == 0 {
		res.Stats.Solver = "none" // identity short-circuit: no solver ran
	}
	res.Stats.Engine = plan.Engine
	res.Stats.CacheHit = plan.CacheHit
	res.Stats.CacheTier = plan.CacheTier
	res.Stats.SolveCounters = plan.Counters
	res.Stats.Degradation = plan.Degradation
	res.Stats.BoundGap = plan.BoundGap
	if e, err := ParseEngine(plan.Engine); err == nil {
		res.Engine = e
	}

	// Stage 3: materialize — expand the op stream into an executable gate
	// sequence (paper Fig. 5).
	st = time.Now()
	mapped, final, err := materialize(c, sk, a, plan.Ops, plan.Initial)
	if err != nil {
		return nil, err
	}
	res.Mapped = mapped
	res.InitialLayout = plan.Initial
	res.FinalLayout = final
	res.Stats.MaterializeTime = time.Since(st)

	// Stage 4: verify — structural, GF(2), and (small instances) unitary
	// equivalence checks.
	if !opts.SkipVerify {
		st = time.Now()
		if err := verifyResult(c, sk, a, plan.Ops, res); err != nil {
			return nil, err
		}
		res.Stats.VerifyTime = time.Since(st)
	}

	// Stage 5: optimize — peephole simplification, re-verified.
	if opts.Optimize {
		st = time.Now()
		simplified, ost := opt.Simplify(res.Mapped)
		res.GatesOptimizedAway = ost.GatesRemoved()
		res.Mapped = simplified
		res.Stats.OptimizeTime = time.Since(st)
		if !opts.SkipVerify {
			st = time.Now()
			if err := verify.CouplingCompliant(res.Mapped, a); err != nil {
				return nil, err
			}
			if a.NumQubits() <= sim.MaxQubits && c.NumQubits() <= 6 {
				if err := verify.Equivalent(c, res.Mapped, a.NumQubits(), res.InitialLayout, res.FinalLayout); err != nil {
					return nil, err
				}
			}
			res.Stats.VerifyTime += time.Since(st)
		}
	}
	res.Runtime = time.Since(start)
	return res, nil
}

// solvePlan is the pipeline's solve stage: a skeleton without CNOTs
// short-circuits to the identity plan (nothing to route, trivially
// minimal); everything else resolves through the solver registry, with
// Portfolio-mode memoization scoped to this instance's cache.
func (m *Mapper) solvePlan(ctx context.Context, sk *circuit.Skeleton, a *arch.Arch, opts Options) (*solver.Plan, error) {
	if opts.CostModel != nil {
		var err error
		if a, err = a.WithCostModel(opts.CostModel); err != nil {
			return nil, fmt.Errorf("qxmap: cost model: %w", err)
		}
	}
	if sk.Len() == 0 {
		return &solver.Plan{
			Initial: perm.IdentityMapping(sk.NumQubits),
			Minimal: true,
			Engine:  "none",
		}, nil
	}
	cfg := solver.Config{
		Engine: opts.Engine,
		SAT: exact.SATOptions{
			StartBound:    opts.SATStartBound,
			BinaryDescent: opts.SATBinaryDescent,
			MaxConflicts:  opts.SATMaxConflicts,
			NoLowerBound:  opts.SATNoLowerBound,
			Threads:       opts.SATThreads,
		},
		HeuristicRuns: opts.HeuristicRuns,
		Seed:          opts.Seed,
		Lookahead:     opts.Lookahead,
		InitialLayout: opts.InitialLayout,
		Portfolio:     opts.Portfolio,
		Cache:         m.cache,
		Ladder:        opts.Ladder,
	}
	// The nil check matters: assigning a nil *store.Store into the
	// interface field would make it non-nil and flip the exact family's
	// direct path into caching mode.
	if m.store != nil {
		cfg.Store = m.store
	}
	s, err := solver.New(opts.Method.String(), cfg)
	if err != nil {
		return nil, err
	}
	return s.Solve(ctx, sk, a)
}

// verifyResult layers the structural, GF(2) and (for small instances) full
// unitary checks over a freshly mapped circuit.
func verifyResult(c *Circuit, sk *circuit.Skeleton, a *Architecture, ops []circuit.MappedOp, res *Result) error {
	if err := verify.CouplingCompliant(res.Mapped, a); err != nil {
		return err
	}
	if sk.Len() > 0 {
		final, err := verify.OpStream(sk, a, ops, res.InitialLayout)
		if err != nil {
			return err
		}
		if !final.Equal(res.FinalLayout) {
			return fmt.Errorf("qxmap: layout mismatch: %v vs %v", final, res.FinalLayout)
		}
		if err := verify.SkeletonOps(sk, a.NumQubits(), ops, res.InitialLayout, res.FinalLayout); err != nil {
			return err
		}
	}
	if a.NumQubits() <= sim.MaxQubits && c.NumQubits() <= 6 {
		if err := verify.Equivalent(c, res.Mapped, a.NumQubits(), res.InitialLayout, res.FinalLayout); err != nil {
			return err
		}
	}
	return nil
}
