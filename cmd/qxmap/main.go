// Command qxmap maps an OpenQASM 2.0 circuit to an IBM QX architecture
// with the minimal number of SWAP and H operations.
//
// Usage:
//
//	qxmap [-arch ibmqx4] [-method exact] [-strategy all|disjoint|odd|triangle]
//	      [-engine sat|dp] [-sat-binary] [-sat-threads 4] [-portfolio] [-timeout 30s]
//	      [-cost-model paper|swap=<n>,h=<n>] [-calibration cal.json]
//	      [-runs 5] [-render] [-stats] [-json] [-cpuprofile cpu.prof]
//	      [-o out.qasm] input.qasm
//
// With input "-", the program reads from standard input. The mapped
// circuit is written as QASM to -o (default: stdout), preceded by a cost
// report on stderr. With -json, the output is instead the stable JSON
// encoding of the result (qxmap.ResultJSON, mapped QASM included) — the
// same shape the qxmapd service returns. A -timeout maps to
// context.WithTimeout over the whole solve: exact runs abort within one
// solver restart interval of the deadline instead of relying on ad-hoc
// conflict budgets.
//
// -cost-model replaces the paper's uniform 7/4 objective with rescaled
// units, and -calibration loads per-coupling weights or error rates from
// a JSON file (see examples/calibration/); every method then optimizes
// the weighted objective, and the effective model is echoed in the cost
// report and the JSON encoding.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime/pprof"
	"strconv"
	"strings"

	"repro/internal/exact"
	"repro/internal/render"

	qxmap "repro"
)

func main() {
	archName := flag.String("arch", "ibmqx4", "target architecture: "+strings.Join(qxmap.Architectures(), ", "))
	methodName := flag.String("method", "exact", "mapping method: "+strings.Join(qxmap.Methods(), ", "))
	strategyName := flag.String("strategy", "", "permutation-point restriction (paper §4.2) for exact mapping: "+strings.Join(exact.Strategies(), ", ")+" (selects the matching Table-1 method, §4.1 subsets included; only valid with -method exact)")
	engineName := flag.String("engine", "sat", "exact engine: sat (paper methodology) or dp")
	satBinary := flag.Bool("sat-binary", false, "binary bound search instead of linear descent (SAT engine)")
	satThreads := flag.Int("sat-threads", 1, "clause-sharing SAT portfolio width (capped at GOMAXPROCS); >1 trades run-to-run witness determinism for parallel speed")
	lowerBound := flag.String("lower-bound", "on", "admissible lower-bound seeding of the SAT descent: on or off")
	runs := flag.Int("runs", 5, "heuristic runs (method=heuristic)")
	seed := flag.Int64("seed", 1, "heuristic random seed")
	doRender := flag.Bool("render", false, "render original and mapped circuits as ASCII diagrams on stderr")
	outPath := flag.String("o", "", "output QASM path (default stdout)")
	optimize := flag.Bool("optimize", false, "run post-mapping peephole optimization")
	initial := flag.String("initial", "", "pin the initial layout, e.g. 2,0,1 (logical j on physical value[j])")
	portfolio := flag.Bool("portfolio", false, "race the SAT and DP engines with heuristic bound seeding and a result cache (ignores -engine)")
	ladder := flag.Bool("ladder", false, "degrade a -timeout-starved exact solve to a valid anytime/heuristic plan instead of failing (reported in stats/JSON degradation)")
	costModel := flag.String("cost-model", "", "cost model: paper (default 7/4) or swap=<n>,h=<n> for uniform rescaling")
	calibration := flag.String("calibration", "", "calibration JSON file with per-edge weights or error rates (overrides -cost-model)")
	timeout := flag.Duration("timeout", 0, "solve deadline (0 = none), e.g. 30s or 2m")
	stats := flag.Bool("stats", false, "report per-stage pipeline timings and solver counters on stderr")
	jsonOut := flag.Bool("json", false, "write the stable JSON result encoding (mapped QASM included) instead of bare QASM")
	cpuProfilePath := flag.String("cpuprofile", "", "write a CPU profile (runtime/pprof) of the run to this file")
	flag.Parse()
	if *cpuProfilePath != "" {
		f, err := os.Create(*cpuProfilePath)
		if err != nil {
			fatal(fmt.Errorf("-cpuprofile: %w", err))
		}
		cpuProfile = f
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(fmt.Errorf("-cpuprofile: %w", err))
		}
		defer stopCPUProfile()
	}

	if flag.NArg() != 1 {
		fatal(fmt.Errorf("expected exactly one input file (or -), got %d args", flag.NArg()))
	}
	// Validate flags before touching the input: a bad -method reports the
	// valid names (via ParseMethod's error) without waiting on stdin.
	method, err := qxmap.ParseMethod(*methodName)
	if err != nil {
		fatal(err)
	}
	if *strategyName != "" {
		// -strategy is sugar for the paper's §4.2 vocabulary: it selects
		// the Table-1 method implementing the restriction. Every strategy
		// column in Table 1 runs with the §4.1 subset optimization, so
		// "all" maps to exact-subsets and the restricted strategies to
		// their like-named methods — comparable semantics across the
		// flag's whole range. A bad name reports ParseStrategy's error,
		// which enumerates the valid ones.
		strategy, err := exact.ParseStrategy(*strategyName)
		if err != nil {
			fatal(err)
		}
		if *methodName != "exact" {
			fatal(fmt.Errorf("-strategy is only valid with -method exact (it selects the strategy's method); got -method %s", *methodName))
		}
		if strategy == exact.StrategyAll {
			method = qxmap.MethodExactSubsets
		} else if method, err = qxmap.ParseMethod(strategy.String()); err != nil {
			fatal(err)
		}
	}
	a, err := qxmap.ArchByName(*archName)
	if err != nil {
		fatal(err)
	}
	src, err := readInput(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	c, err := qxmap.ParseQASM(src)
	if err != nil {
		fatal(err)
	}
	opts := qxmap.Options{Method: method, HeuristicRuns: *runs, Seed: *seed, Optimize: *optimize, Portfolio: *portfolio, Ladder: *ladder, SATBinaryDescent: *satBinary, SATThreads: *satThreads}
	switch *lowerBound {
	case "on":
	case "off":
		opts.SATNoLowerBound = true
	default:
		fatal(fmt.Errorf("-lower-bound must be on or off, got %q", *lowerBound))
	}
	if *initial != "" {
		layout, err := parseLayout(*initial)
		if err != nil {
			fatal(err)
		}
		opts.InitialLayout = layout
	}
	if opts.Engine, err = qxmap.ParseEngine(*engineName); err != nil {
		fatal(err)
	}
	switch {
	case *calibration != "":
		if opts.CostModel, err = qxmap.LoadCalibration(*calibration); err != nil {
			fatal(err)
		}
	case *costModel != "":
		if opts.CostModel, err = qxmap.ParseCostModel(*costModel); err != nil {
			fatal(err)
		}
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	res, err := qxmap.MapContext(ctx, c, a, opts)
	if err != nil {
		fatal(err)
	}

	fmt.Fprintf(os.Stderr, "mapped %d-qubit circuit (%d gates) to %s\n", c.NumQubits(), c.Len(), a)
	fmt.Fprintf(os.Stderr, "method=%s engine=%s cost F=%d (%d SWAPs, %d direction switches)\n",
		res.Method, res.Engine, res.Cost, res.Swaps, res.Switches)
	if res.CostModel != nil {
		fmt.Fprintf(os.Stderr, "cost model: %s\n", res.CostModel.Summary())
	}
	fmt.Fprintf(os.Stderr, "total gates: %d → %d; depth: %d → %d; minimal: %v; runtime: %v\n",
		c.Len(), res.TotalGates(), c.Depth(), res.Mapped.Depth(), res.Minimal, res.Runtime)
	if res.GatesOptimizedAway > 0 {
		fmt.Fprintf(os.Stderr, "peephole optimization removed %d gates\n", res.GatesOptimizedAway)
	}
	if d := res.Stats.Degradation; d != "" {
		fmt.Fprintf(os.Stderr, "degraded: %s (deadline hit; cost is an upper bound", d)
		if res.Stats.BoundGap > 0 {
			fmt.Fprintf(os.Stderr, ", optimum ≥ %d", res.Cost-res.Stats.BoundGap)
		}
		fmt.Fprintln(os.Stderr, ")")
	}
	fmt.Fprintf(os.Stderr, "initial layout: %s\n", render.Mapping(res.InitialLayout))
	fmt.Fprintf(os.Stderr, "final layout:   %s\n", render.Mapping(res.FinalLayout))
	if *stats {
		s := res.Stats
		fmt.Fprintf(os.Stderr, "pipeline: skeleton=%v solve=%v materialize=%v verify=%v optimize=%v\n",
			s.SkeletonTime, s.SolveTime, s.MaterializeTime, s.VerifyTime, s.OptimizeTime)
		fmt.Fprintf(os.Stderr, "solver: %s via %s, cache-hit=%v, sat-solves=%d, sat-encodes=%d, sat-conflicts=%d\n",
			s.Solver, s.Engine, s.CacheHit, s.SATSolves, s.SATEncodes, s.SATConflicts)
		fmt.Fprintf(os.Stderr, "descent: bound-probes=%d, bound-jumps=%d, lower-bound=%d\n",
			s.BoundProbes, s.BoundJumps, s.LowerBound)
		if s.SubsetsPruned > 0 || s.OrbitHits > 0 || s.CoreFamilyRefutations > 0 {
			fmt.Fprintf(os.Stderr, "subsets: pruned=%d, core-family-refutations=%d, orbit-hits=%d\n",
				s.SubsetsPruned, s.CoreFamilyRefutations, s.OrbitHits)
		}
		if s.SATThreads > 1 {
			fmt.Fprintf(os.Stderr, "portfolio: sat-threads=%d, shared-clauses=%d\n",
				s.SATThreads, s.SharedClauses)
		}
	}
	if *doRender {
		fmt.Fprintln(os.Stderr, "\noriginal:")
		fmt.Fprint(os.Stderr, render.Circuit(c))
		fmt.Fprintln(os.Stderr, "\nmapped:")
		fmt.Fprint(os.Stderr, render.Circuit(res.Mapped))
	}

	var out string
	if *jsonOut {
		// The stable wire encoding — identical to a qxmapd /v1/map response.
		j, err := res.JSON(true)
		if err != nil {
			fatal(err)
		}
		b, err := json.MarshalIndent(j, "", "  ")
		if err != nil {
			fatal(err)
		}
		out = string(b) + "\n"
	} else {
		if out, err = qxmap.WriteQASM(res.Mapped); err != nil {
			fatal(err)
		}
	}
	if *outPath == "" {
		fmt.Print(out)
		return
	}
	if err := os.WriteFile(*outPath, []byte(out), 0o644); err != nil {
		fatal(err)
	}
}

// parseLayout parses a comma-separated physical qubit list.
func parseLayout(spec string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(spec, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad layout entry %q", part)
		}
		out = append(out, v)
	}
	return out, nil
}

func readInput(path string) (string, error) {
	if path == "-" {
		b, err := io.ReadAll(os.Stdin)
		return string(b), err
	}
	b, err := os.ReadFile(path)
	return string(b), err
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "qxmap:", err)
	stopCPUProfile()
	os.Exit(1)
}

// cpuProfile is the -cpuprofile file while a CPU profile runs. Every exit
// path calls stopCPUProfile: main's return as well as fatal.
var cpuProfile *os.File

// stopCPUProfile ends the CPU profile, if one runs, and closes its file.
// Stopping a profile that never started is a no-op.
func stopCPUProfile() {
	if cpuProfile == nil {
		return
	}
	pprof.StopCPUProfile()
	if err := cpuProfile.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "qxmap: -cpuprofile:", err)
	}
	cpuProfile = nil
}
