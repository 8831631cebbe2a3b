// Command qxbench regenerates the paper's evaluation: Table 1 over the
// 25-benchmark suite and the aggregate claims of §5. Rows fan out across
// cores with -parallel/-workers.
//
// A second mode, -batch <method>, maps the whole suite through
// qxmap.MapBatch instead: one concurrent mapping job per benchmark with a
// bounded worker pool, optional per-job deadlines and fail-soft error
// collection — the service-style execution path rather than the
// paper-table harness. With -json the batch emits a stable perf snapshot
// (costs, encode/probe/conflict counters, solve times) on stdout, and
// -baseline compares the run against a committed snapshot, failing on an
// encode-count regression (sat_encodes ≠ 1), a bound-probe count above the
// recorded baseline, more single-thread SAT conflicts than the baseline, a
// cost change, or a lost minimality proof — the CI bench smoke gate.
//
// Usage:
//
//	qxbench [-arch ibmqx4] [-engine dp|sat] [-seed-sat] [-portfolio]
//	        [-runs 5] [-names a,b,c] [-summary] [-timeout 30s]
//	        [-parallel] [-workers 8] [-lower-bound on|off]
//	        [-cost-model paper|swap=<n>,h=<n>] [-calibration cal.json]
//	        [-cpuprofile cpu.prof]
//	qxbench -batch exact [-workers 8] [-job-timeout 10s] [-portfolio]
//	        [-sat-binary] [-sat-threads 4] [-json] [-baseline BENCH_5.json]
//	        [-probe-budget BENCH_6.json]
//
// -probe-budget additionally caps the run's TOTAL bound probes at another
// snapshot's total (requiring identical per-benchmark costs): the
// cross-method gate proving the §4.1 shared-instance fan-out spends no
// more probes than the plain exact descent it generalizes.
//
// -cost-model/-calibration attach a weighted cost model to the target
// architecture in both modes; a non-default model is recorded in the
// snapshot's cost_model field. Running with the explicit paper model must
// reproduce the default snapshots bit-for-bit — the CI weighted-parity
// gate (BENCH_8.json).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
	"slices"
	"strings"
	"time"

	"repro/internal/arch"
	"repro/internal/bench"
	"repro/internal/revlib"

	qxmap "repro"
)

func main() {
	archName := flag.String("arch", "ibmqx4", "target architecture: "+strings.Join(qxmap.Architectures(), ", "))
	engine := flag.String("engine", "dp", "exact engine: dp or sat")
	seedSAT := flag.Bool("seed-sat", false, "seed SAT descent with the DP cost")
	portfolio := flag.Bool("portfolio", false, "race both engines per instance with heuristic seeding and a result cache (ignores -engine and -seed-sat)")
	ladder := flag.Bool("ladder", false, "degradation ladder (-batch mode): deadline-starved jobs yield valid anytime/heuristic plans instead of errors")
	runs := flag.Int("runs", 5, "heuristic runs per benchmark (paper: 5)")
	names := flag.String("names", "", "comma-separated benchmark subset (default: all 25)")
	summaryOnly := flag.Bool("summary", false, "print only the aggregate summary")
	parallel := flag.Bool("parallel", false, "evaluate benchmark rows concurrently (one worker per core)")
	workers := flag.Int("workers", 0, "bound the worker pool (implies -parallel; 0 = one per core)")
	timeout := flag.Duration("timeout", 0, "wall-clock deadline for the whole run (0 = none), e.g. 30s or 5m")
	batchMethod := flag.String("batch", "", "map the suite through qxmap.MapBatch with this method ("+strings.Join(qxmap.Methods(), ", ")+") instead of running Table 1")
	jobTimeout := flag.Duration("job-timeout", 0, "per-job deadline in -batch mode (0 = none)")
	satBinary := flag.Bool("sat-binary", false, "binary bound search instead of linear descent (-batch mode, SAT engine)")
	satThreads := flag.Int("sat-threads", 1, "clause-sharing SAT portfolio width (capped at GOMAXPROCS); >1 trades run-to-run witness determinism for parallel speed")
	lowerBound := flag.String("lower-bound", "on", "admissible lower-bound seeding of the SAT descent: on or off")
	jsonOut := flag.Bool("json", false, "emit a stable JSON perf snapshot of the batch on stdout (-batch mode)")
	baseline := flag.String("baseline", "", "compare the batch against this committed perf snapshot and fail on encode/probe/conflict/cost regressions (-batch mode)")
	probeBudget := flag.String("probe-budget", "", "cap the run's TOTAL bound probes at this snapshot's total, requiring identical per-benchmark costs — the cross-method gate proving the §4.1 shared instance spends no more probes than the plain exact descent (-batch mode)")
	storeDir := flag.String("store", "", "persistent result store directory (-batch mode): solved instances are written through and identical reruns are served from disk with zero SAT work")
	costModel := flag.String("cost-model", "", "cost model: paper (default 7/4) or swap=<n>,h=<n> for uniform rescaling")
	calibration := flag.String("calibration", "", "calibration JSON file with per-edge weights or error rates (overrides -cost-model)")
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

	noLowerBound := false
	switch *lowerBound {
	case "on":
	case "off":
		noLowerBound = true
	default:
		fatal(fmt.Errorf("-lower-bound must be on or off, got %q", *lowerBound))
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	a, err := arch.ByName(*archName)
	if err != nil {
		fatal(err)
	}
	// A cost model rides on the architecture, so both modes — Table 1 and
	// -batch — optimize the weighted objective through the same plumbing.
	var cm *arch.CostModel
	switch {
	case *calibration != "":
		cm, err = arch.LoadCalibration(*calibration)
	case *costModel != "":
		cm, err = arch.ParseCostModel(*costModel)
	}
	if err != nil {
		fatal(err)
	}
	if cm != nil {
		if a, err = a.WithCostModel(cm); err != nil {
			fatal(err)
		}
	}
	eng, err := qxmap.ParseEngine(*engine)
	if err != nil {
		fatal(err)
	}

	if *batchMethod != "" {
		runBatch(ctx, a, batchConfig{
			method:       *batchMethod,
			engine:       eng,
			portfolio:    *portfolio,
			ladder:       *ladder,
			satBinary:    *satBinary,
			satThreads:   *satThreads,
			noLowerBound: noLowerBound,
			runs:         *runs,
			names:        *names,
			workers:      *workers,
			jobTimeout:   *jobTimeout,
			jsonOut:      *jsonOut,
			baseline:     *baseline,
			probeBudget:  *probeBudget,
			storeDir:     *storeDir,
		})
		return
	}

	cfg := bench.Config{
		Arch:          a,
		Engine:        eng,
		HeuristicRuns: *runs,
		SeedSATWithDP: *seedSAT,
		Parallel:      *parallel,
		Workers:       *workers,
		Portfolio:     *portfolio,
		NoLowerBound:  noLowerBound,
		SATThreads:    *satThreads,
	}
	if *names != "" {
		cfg.Names = strings.Split(*names, ",")
	}

	rows, err := bench.RunTable1(ctx, cfg)
	if err != nil {
		fatal(err)
	}
	if !*summaryOnly {
		fmt.Println("Table 1 — mapping the benchmark suite to", a.Name(),
			"(engine:", *engine+")")
		fmt.Print(bench.FormatTable(rows))
		fmt.Println()
	}
	fmt.Print(bench.FormatSummary(bench.Summary(rows)))
}

// batchConfig carries the -batch mode flags.
type batchConfig struct {
	method       string
	engine       qxmap.Engine
	portfolio    bool
	ladder       bool
	satBinary    bool
	satThreads   int
	noLowerBound bool
	runs         int
	names        string
	workers      int
	jobTimeout   time.Duration
	jsonOut      bool
	baseline     string
	probeBudget  string
	storeDir     string
}

// snapshotRow is one benchmark's entry in the stable -json perf snapshot.
// The counters reuse the qxmap wire schema (StatsJSON), so a counter added
// to Stats flows into the snapshot without a second hand-mirrored type.
type snapshotRow struct {
	Name    string          `json:"name"`
	Cost    int             `json:"cost"`
	Minimal bool            `json:"minimal"`
	Stats   qxmap.StatsJSON `json:"stats"`
}

// batchSnapshot is the -json perf snapshot of a whole batch run — the
// format committed as BENCH_5.json and compared by -baseline.
type batchSnapshot struct {
	Arch      string `json:"arch"`
	Method    string `json:"method"`
	Engine    string `json:"engine"`
	SATBinary bool   `json:"sat_binary"`
	// CostModel summarizes a non-default weighted objective; omitted for
	// the paper's 7/4 model, so default snapshots are unchanged.
	CostModel  string        `json:"cost_model,omitempty"`
	Benchmarks []snapshotRow `json:"benchmarks"`
	TotalCost  int           `json:"total_added_cost"`
	WallNS     int64         `json:"wall_ns"`
}

// runBatch maps every suite benchmark as one MapBatch job on a dedicated
// Mapper instance: the suite fans out across cores, failures (including
// per-job deadline expiries) are collected per benchmark, and per-stage
// pipeline timings are reported. With jsonOut the run emits the snapshot
// instead of the table; with baseline it is additionally gated against a
// committed snapshot.
func runBatch(ctx context.Context, a *arch.Arch, cfg batchConfig) {
	method, err := qxmap.ParseMethod(cfg.method)
	if err != nil {
		fatal(err) // the error lists the valid method names
	}
	mopts := []qxmap.Option{qxmap.WithWorkers(cfg.workers)}
	if cfg.storeDir != "" {
		// The store never changes answers — only where they come from: a
		// cold store leaves every solve untouched (write-through only), a
		// warm one serves identical instances with zero SAT work (the
		// baseline gate's sat_encodes==1 check is for cold runs; warm
		// reruns are asserted separately on cache_tier/sat_encodes).
		mopts = append(mopts, qxmap.WithStore(cfg.storeDir))
	}
	mapper, err := qxmap.NewMapper(mopts...)
	if err != nil {
		fatal(err)
	}
	defer mapper.Close()
	var selected []string
	if cfg.names != "" {
		selected = strings.Split(cfg.names, ",")
	}
	var jobs []qxmap.Job
	for _, b := range revlib.Suite() {
		if len(selected) > 0 && !slices.Contains(selected, b.Name) {
			continue
		}
		jobs = append(jobs, qxmap.Job{
			Name:    b.Name,
			Circuit: b.Circuit,
			Arch:    a,
			Opts: qxmap.Options{
				Method:           method,
				Engine:           cfg.engine,
				Portfolio:        cfg.portfolio,
				Ladder:           cfg.ladder,
				SATBinaryDescent: cfg.satBinary,
				SATThreads:       cfg.satThreads,
				SATNoLowerBound:  cfg.noLowerBound,
				HeuristicRuns:    cfg.runs,
				Seed:             1,
				Lookahead:        0.5,
			},
		})
	}

	start := time.Now()
	results := mapper.MapBatch(ctx, jobs, qxmap.BatchOptions{JobTimeout: cfg.jobTimeout})
	elapsed := time.Since(start)

	snap := batchSnapshot{
		Arch:      a.Name(),
		Method:    method.String(),
		Engine:    cfg.engine.String(),
		SATBinary: cfg.satBinary,
		WallNS:    elapsed.Nanoseconds(),
	}
	if cm := a.Cost(); !cm.IsPaper() {
		snap.CostModel = cm.Summary()
	}
	failures := 0
	for _, br := range results {
		if br.Err != nil {
			failures++
			fmt.Fprintf(os.Stderr, "qxbench: %s: %v\n", br.Job.Name, br.Err)
			continue
		}
		r := br.Result
		snap.TotalCost += r.Cost
		snap.Benchmarks = append(snap.Benchmarks, snapshotRow{
			Name:    br.Job.Name,
			Cost:    r.Cost,
			Minimal: r.Minimal,
			Stats:   r.Stats.JSON(),
		})
	}

	if cfg.jsonOut {
		b, err := json.MarshalIndent(snap, "", "  ")
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(b))
	} else {
		fmt.Printf("%-12s %6s %6s %8s %6s %7s %7s %9s %7s %6s %4s %7s %6s %7s %10s\n",
			"benchmark", "F", "gates", "engine", "cache", "solves", "encodes", "conflicts", "probes", "jumps", "lb", "pruned", "orbit", "famref", "solve")
		for _, br := range results {
			if br.Err != nil {
				fmt.Printf("%-12s %6s\n", br.Job.Name, "FAIL")
				continue
			}
			r := br.Result
			fmt.Printf("%-12s %6d %6d %8s %6v %7d %7d %9d %7d %6d %4d %7d %6d %7d %10v\n",
				br.Job.Name, r.Cost, r.TotalGates(), r.Stats.Engine, r.CacheHit,
				r.Stats.SATSolves, r.Stats.SATEncodes, r.Stats.SATConflicts,
				r.Stats.BoundProbes, r.Stats.BoundJumps, r.Stats.LowerBound,
				r.Stats.SubsetsPruned, r.Stats.OrbitHits, r.Stats.CoreFamilyRefutations,
				r.Stats.SolveTime.Round(time.Microsecond))
		}
		fmt.Printf("\nbatch: %d jobs (%d failed), method=%s, total added gates F=%d, wall-clock %v\n",
			len(results), failures, method, snap.TotalCost, elapsed.Round(time.Millisecond))
	}
	if cfg.baseline != "" {
		if err := compareBaseline(snap, cfg.baseline); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "qxbench: baseline %s: no encode, probe, conflict or cost regressions\n", cfg.baseline)
	}
	if cfg.probeBudget != "" {
		if err := compareProbeBudget(snap, cfg.probeBudget); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "qxbench: probe budget %s: total bound probes within budget at identical costs\n", cfg.probeBudget)
	}
	if failures > 0 {
		stopCPUProfile()
		os.Exit(1)
	}
}

// compareBaseline gates the run against a committed snapshot: every
// benchmark recorded in the baseline must be present in the run (a
// filtered-away or failed row must not pass the gate vacuously) and must
// report sat_encodes == 1 per solved instance (the incremental-descent
// invariant for the plain exact method), a bound-probe count no higher
// than the baseline's, an identical cost, and no lost minimality proof (a
// row the baseline proved minimal must stay proven). Where both the run and
// the baseline solved a row on one SAT thread, its conflict count is
// deterministic, so spending more conflicts than the baseline fails too.
func compareBaseline(snap batchSnapshot, path string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var base batchSnapshot
	if err := json.Unmarshal(raw, &base); err != nil {
		return fmt.Errorf("baseline %s: %w", path, err)
	}
	if len(base.Benchmarks) == 0 {
		return fmt.Errorf("baseline %s records no benchmarks; the gate would be vacuous", path)
	}
	rows := make(map[string]snapshotRow, len(snap.Benchmarks))
	for _, r := range snap.Benchmarks {
		rows[r.Name] = r
	}
	for _, b := range base.Benchmarks {
		r, ok := rows[b.Name]
		if !ok {
			return fmt.Errorf("baseline regression: %s is in %s but missing from this run (failed or filtered out)", b.Name, path)
		}
		if r.Stats.SATEncodes != 1 {
			return fmt.Errorf("baseline regression: %s encoded %d times, want exactly 1 (incremental descent broke)", b.Name, r.Stats.SATEncodes)
		}
		if r.Stats.BoundProbes > b.Stats.BoundProbes {
			return fmt.Errorf("baseline regression: %s used %d bound probes, baseline %d", b.Name, r.Stats.BoundProbes, b.Stats.BoundProbes)
		}
		if r.Stats.SATThreads == 1 && b.Stats.SATThreads == 1 && r.Stats.SATConflicts > b.Stats.SATConflicts {
			return fmt.Errorf("baseline regression: %s spent %d SAT conflicts, baseline %d", b.Name, r.Stats.SATConflicts, b.Stats.SATConflicts)
		}
		if r.Cost != b.Cost {
			return fmt.Errorf("baseline regression: %s cost %d, baseline %d", b.Name, r.Cost, b.Cost)
		}
		if b.Minimal && !r.Minimal {
			return fmt.Errorf("baseline regression: %s lost its minimality proof (baseline proved minimal)", b.Name)
		}
		// §4.1 fan-out instrumentation: a baseline that recorded pruned
		// subsets or orbit transfers must keep them — a drop to below the
		// recorded level means the lower-bound pruning or the automorphism
		// orbit machinery silently stopped firing.
		if got, want := r.Stats.SubsetsPruned+r.Stats.OrbitHits, b.Stats.SubsetsPruned+b.Stats.OrbitHits; got < want {
			return fmt.Errorf("baseline regression: %s retired %d subsets without probes (pruned+orbit), baseline %d", b.Name, got, want)
		}
	}
	return nil
}

// compareProbeBudget gates the run's TOTAL bound-probe spend against
// another committed snapshot — typically the plain exact method's baseline,
// proving the §4.1 shared-instance fan-out covers every connected subset
// without spending more probes than a single-architecture descent. The
// comparison is only meaningful at identical answers, so per-benchmark
// costs must match the budget snapshot exactly.
func compareProbeBudget(snap batchSnapshot, path string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var base batchSnapshot
	if err := json.Unmarshal(raw, &base); err != nil {
		return fmt.Errorf("probe budget %s: %w", path, err)
	}
	if len(base.Benchmarks) == 0 {
		return fmt.Errorf("probe budget %s records no benchmarks; the gate would be vacuous", path)
	}
	rows := make(map[string]snapshotRow, len(snap.Benchmarks))
	for _, r := range snap.Benchmarks {
		rows[r.Name] = r
	}
	budget, spent := 0, 0
	for _, b := range base.Benchmarks {
		r, ok := rows[b.Name]
		if !ok {
			return fmt.Errorf("probe budget: %s is in %s but missing from this run", b.Name, path)
		}
		if r.Cost != b.Cost {
			return fmt.Errorf("probe budget: %s cost %d, budget snapshot %d — probe totals are only comparable at identical costs", b.Name, r.Cost, b.Cost)
		}
		budget += b.Stats.BoundProbes
		spent += r.Stats.BoundProbes
	}
	if spent > budget {
		return fmt.Errorf("probe budget regression: run spent %d bound probes, budget %s allows %d", spent, path, budget)
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "qxbench:", err)
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
		fmt.Fprintln(os.Stderr, "qxbench: -cpuprofile:", err)
	}
	cpuProfile = nil
}
