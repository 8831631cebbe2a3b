package main

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	qxmap "repro"
	"repro/internal/circuit"
	"repro/internal/exact"
	"repro/internal/revlib"
)

// libSpec is one part of a library workload: inputs mapped with the given
// methods on one architecture, and how their outputs are checked. Its name
// keys the part's costs in expected_seed0.json.
type libSpec struct {
	name    string
	arch    func() *qxmap.Architecture
	methods []qxmap.Method
	inputs  func(seed int64) []input
	// minimal requires every map to prove its cost minimal.
	minimal bool
	// dpRef checks every cost against the DP engine on the same method
	// (the committed expected costs for seed 0); false for heuristics,
	// which are checked for verified, self-consistent plans only.
	dpRef bool
	// probe runs the traced run's direct layer calls for one mapped
	// circuit (nil: the part does not involve SAT).
	probe func(ctx context.Context, tr *tracer, id string, c *qxmap.Circuit, a *qxmap.Architecture, res *qxmap.Result) (probeResult, error)
}

// libWorkload is a workload driven in-process through qxmap.NewMapper and
// Mapper.MapWith, one circuit at a time on one worker with one SAT thread.
// One pass maps every input of each part in turn.
type libWorkload struct {
	name  string
	parts []*libSpec
}

// Row sets and pass sizes; README.md says why each leaves out the larger
// rows. The §3 part takes every 3-qubit row of Table 1 (the descent starts
// from lower bound 0 on QX4) and the 4- and 5-qubit rows with at most 11
// CNOTs (lower bound 7). The §4.1 part takes the 3-qubit rows with at most
// 17 CNOTs. One pass maps the given number of regenerations of each row.
const (
	exactVariants   = 12
	subsetsVariants = 15
)

func exactRows(b revlib.Benchmark) bool { return b.N == 3 || b.CNOTs <= 11 }

func subsetsRows(b revlib.Benchmark) bool { return b.N == 3 && b.CNOTs <= 17 }

var exactSpec = &libSpec{
	name:    "exact-sat-qx4",
	arch:    qxmap.QX4,
	methods: []qxmap.Method{qxmap.MethodExact},
	inputs:  func(seed int64) []input { return tableInputs(seed, exactVariants, exactRows) },
	minimal: true,
	dpRef:   true,
	probe:   probeExact,
}

var subsetsSpec = &libSpec{
	name:    "subsets-heavyhex27",
	arch:    qxmap.HeavyHex27,
	methods: []qxmap.Method{qxmap.MethodExactSubsets},
	inputs:  func(seed int64) []input { return tableInputs(seed, subsetsVariants, subsetsRows) },
	dpRef:   true,
	probe:   probeSubsets,
}

var heuristicSpec = &libSpec{
	name:    "heuristic-heavyhex27",
	arch:    qxmap.HeavyHex27,
	methods: []qxmap.Method{qxmap.MethodHeuristic, qxmap.MethodAStar, qxmap.MethodSabre},
	inputs: func(seed int64) []input {
		return randomInputs("hh", seed, []int{8, 12, 16}, 4, 4, 6)
	},
}

var (
	exactSat  = libWorkload{"exact-sat", []*libSpec{exactSpec, subsetsSpec}}
	heuristic = libWorkload{"heuristic-heavyhex27", []*libSpec{heuristicSpec}}
)

// setupReps is how many times a run constructs and warms its Mapper; the
// reported setup_s is the median. The set-ups are spread through the first
// pass, so a slow spell of the host weighs on set-up and mapping alike.
const setupReps = 21

// task is one MapWith call of a pass.
type task struct {
	part   *libSpec
	in     input
	method qxmap.Method
}

func (t task) id() string { return t.in.ID + "/" + t.method.String() }

// tasks lists one pass: every input of every part with each of the part's
// methods. half keeps the first half of each part's inputs.
func (w libWorkload) tasks(seed int64, half bool) []task {
	var out []task
	for _, p := range w.parts {
		ins := p.inputs(seed)
		if half {
			ins = ins[:(len(ins)+1)/2]
		}
		for _, in := range ins {
			for _, meth := range p.methods {
				out = append(out, task{p, in, meth})
			}
		}
	}
	return out
}

// archs holds the architecture each part maps onto.
type archs map[*libSpec]*qxmap.Architecture

// mapRun is one MapWith call and its outcome.
type mapRun struct {
	task
	dur time.Duration
	res *qxmap.Result
	err error
}

// opts returns the library defaults with the given method; the heuristic's
// random source is seeded from the workload seed.
func opts(m *qxmap.Mapper, method qxmap.Method, seed int64) qxmap.Options {
	o := m.Options()
	o.Method = method
	o.Seed = seed
	return o
}

// setupLibrary constructs the Mapper and every part's architecture and maps
// one small warm-up circuit with every method, so lazily built state
// (coupling distances, subset and automorphism tables) is ready before
// timing.
func setupLibrary(ctx context.Context, w libWorkload, seed int64) (*qxmap.Mapper, archs, error) {
	m, err := qxmap.NewMapper(qxmap.WithWorkers(1))
	if err != nil {
		return nil, nil, err
	}
	as := archs{}
	warm := revlib.RandomCircuit("perfbench-warmup", 3, 4, 4)
	for _, p := range w.parts {
		as[p] = p.arch()
		for _, meth := range p.methods {
			if _, err := m.MapWith(ctx, warm, as[p], opts(m, meth, seed)); err != nil {
				m.Close()
				return nil, nil, fmt.Errorf("warm-up %s: %w", meth, err)
			}
		}
	}
	return m, as, nil
}

// mapOne maps one task. With a tracer it records a root span for the call
// and the program's stage timers as its children; the returned elapsed
// time includes that recording.
func mapOne(ctx context.Context, m *qxmap.Mapper, as archs, t task, seed int64, tr *tracer) (mapRun, time.Duration) {
	o := opts(m, t.method, seed)
	t0 := time.Now()
	res, err := m.MapWith(ctx, t.in.Circuit, as[t.part], o)
	t1 := time.Now()
	r := mapRun{task: t, dur: t1.Sub(t0), res: res, err: err}
	if tr != nil {
		root := tr.add(t.id(), 0, "pipeline.map", t0, t1)
		if res != nil {
			tr.stages(t.id(), root, t0, stageNames(t.method, res.CacheHit), []time.Duration{
				res.Stats.SkeletonTime, res.Stats.SolveTime, res.Stats.MaterializeTime,
				res.Stats.VerifyTime, res.Stats.OptimizeTime,
			})
		}
	}
	return r, time.Since(t0)
}

// runPass maps every task once, untraced.
func runPass(ctx context.Context, m *qxmap.Mapper, as archs, ts []task, seed int64) ([]mapRun, time.Duration) {
	start := time.Now()
	runs := make([]mapRun, 0, len(ts))
	for _, t := range ts {
		r, _ := mapOne(ctx, m, as, t, seed, nil)
		runs = append(runs, r)
	}
	return runs, time.Since(start)
}

// runPaired maps every task twice, once untraced and once traced,
// alternating which goes first so that neither side gains from running
// second. It returns both sets of runs and the summed time of each side.
func runPaired(ctx context.Context, m *qxmap.Mapper, as archs, ts []task, seed int64, tr *tracer) (plain, traced []mapRun, plainTime, tracedTime time.Duration) {
	for k, t := range ts {
		for side := 0; side < 2; side++ {
			if (k+side)%2 == 0 {
				r, d := mapOne(ctx, m, as, t, seed, nil)
				plain, plainTime = append(plain, r), plainTime+d
			} else {
				r, d := mapOne(ctx, m, as, t, seed, tr)
				traced, tracedTime = append(traced, r), tracedTime+d
			}
		}
	}
	return plain, traced, plainTime, tracedTime
}

// stageNames names the pipeline's five stage spans; the solve stage belongs
// to the layer that did the work.
func stageNames(meth qxmap.Method, cacheHit bool) []string {
	solve := "exact.solve"
	switch {
	case cacheHit:
		solve = "portfolio.lookup"
	case isHeuristic(meth):
		solve = "heuristic.solve"
	}
	return []string{"circuit.skeleton", solve, "pipeline.materialize", "pipeline.verify", "pipeline.optimize"}
}

func isHeuristic(m qxmap.Method) bool {
	return m == qxmap.MethodHeuristic || m == qxmap.MethodAStar || m == qxmap.MethodSabre
}

// run is the workload's runner.
func (w libWorkload) run(ctx context.Context, cfg config) (*report, error) {
	rep := newReport()
	// A traced run maps the first half of the inputs untraced and traced,
	// in pairs, which with its layer probes keeps it near the length of an
	// untraced run.
	ts := w.tasks(cfg.seed, cfg.trace)
	var tr *tracer
	if cfg.trace {
		tr = &tracer{}
	}

	// The first pass is cut into setupReps chunks; each chunk is mapped by
	// a Mapper set up just before it.
	var setups []time.Duration
	var m *qxmap.Mapper
	var as archs
	defer func() {
		if m != nil {
			m.Close()
		}
	}()
	var plain, traced []mapRun
	var plainTime, tracedTime time.Duration
	start := time.Now()
	cpu0, steal0 := cpuTime(), stealTicks()
	for k := 0; k < setupReps; k++ {
		if m != nil {
			m.Close()
			m = nil
		}
		// Collect the previous chunk's garbage first, so that it is not
		// collected on the set-up's clock.
		runtime.GC()
		t0 := time.Now()
		var err error
		if m, as, err = setupLibrary(ctx, w, cfg.seed); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0))
		chunk := ts[k*len(ts)/setupReps : (k+1)*len(ts)/setupReps]
		if cfg.trace {
			p, t, pt, tt := runPaired(ctx, m, as, chunk, cfg.seed, tr)
			plain, traced = append(plain, p...), append(traced, t...)
			plainTime, tracedTime = plainTime+pt, tracedTime+tt
		} else {
			runs, d := runPass(ctx, m, as, chunk, cfg.seed)
			plain, plainTime = append(plain, runs...), plainTime+d
		}
	}

	// An untraced run repeats whole passes while another one fits in the
	// budget. A traced run's two passes are its untraced and traced halves.
	passes, walls := [][]mapRun{plain}, []time.Duration{plainTime}
	if cfg.trace {
		passes, walls = append(passes, traced), append(walls, tracedTime)
	} else {
		for time.Since(start)+plainTime <= cfg.budget() && ctx.Err() == nil {
			runs, d := runPass(ctx, m, as, ts, cfg.seed)
			passes, walls = append(passes, runs), append(walls, d)
		}
	}
	rep.note("the maps used %.2f s of CPU; the host stole %d clock ticks meanwhile",
		(cpuTime() - cpu0).Seconds(), stealTicks()-steal0)

	refs, err := references(ctx, w, cfg.seed, ts, as)
	if err != nil {
		return nil, err
	}
	if err := evaluate(rep, passes, refs, as); err != nil {
		return nil, err
	}

	rep.set("setup_s", median(durS(setups)), "s")
	rep.set("wall_s", median(durS(walls)), "s")
	var lat []time.Duration
	for _, p := range passes {
		for _, r := range p {
			lat = append(lat, r.dur)
		}
	}
	rep.set("map_ms_p50", median(durMS(lat)), "ms")
	rep.set("peak_rss_mb", peakRSSMB("self"), "MiB")
	rep.note("%d passes of %d maps (%v); wall_s is the median pass, map_ms_p50 the median of %d maps, setup_s the median of %d set-ups",
		len(passes), len(passes[0]), walls, len(lat), setupReps)
	rep.note("set-ups: quartiles %.2f, %.2f, %.2f ms", quantile(durMS(setups), 0.25), median(durMS(setups)), quantile(durMS(setups), 0.75))
	for _, p := range w.parts {
		var d time.Duration
		for _, r := range passes[0] {
			if r.part == p {
				d += r.dur
			}
		}
		rep.note("first pass, %s: %.2f s", p.name, d.Seconds())
	}
	if cfg.trace {
		rep.note("traced run: the two passes are the untraced and traced halves of paired maps")
	}
	if len(lat) < 20 {
		rep.note("map_ms_p50 rests on fewer than 20 maps")
	}

	if cfg.trace {
		if err := traceMetrics(ctx, rep, as, plain, traced, tracedTime-plainTime, tr); err != nil {
			return nil, err
		}
		path, err := tr.write(filepath.Join(cfg.outDir, "traces"), w.name, cfg.seed)
		if err != nil {
			return nil, err
		}
		rep.note("spans written to %s", path)
	}
	return rep, nil
}

// references returns the expected cost of every input of every part that
// has one, by part: the committed file for seed 0, the DP engine's cost
// under the part's method otherwise.
func references(ctx context.Context, w libWorkload, seed int64, ts []task, as archs) (map[*libSpec]map[string]int, error) {
	var all map[string]map[string]int
	if seed == 0 {
		var err error
		if all, err = expectedSeed0(); err != nil {
			return nil, err
		}
	}
	refs := map[*libSpec]map[string]int{}
	for _, p := range w.parts {
		if !p.dpRef {
			continue
		}
		var ins []input
		for _, t := range ts {
			if t.part == p {
				ins = append(ins, t.in)
			}
		}
		if seed != 0 {
			ref, err := dpCosts(ctx, p.methods[0], ins, as[p])
			if err != nil {
				return nil, err
			}
			refs[p] = ref
			continue
		}
		for _, in := range ins {
			if _, ok := all[p.name][in.ID]; !ok {
				return nil, fmt.Errorf("expected_seed0.json has no cost for %s/%s", p.name, in.ID)
			}
		}
		refs[p] = all[p.name]
	}
	return refs, nil
}

// dpCosts solves every input with the exact package's DP engine, called
// directly so that the reference shares neither the SAT engine nor the
// root package's pipeline with the answers it checks. It is the reference
// for seeds other than 0.
func dpCosts(ctx context.Context, method qxmap.Method, ins []input, a *qxmap.Architecture) (map[string]int, error) {
	o := exact.Options{Engine: exact.EngineDP, UseSubsets: method == qxmap.MethodExactSubsets}
	ref := make(map[string]int, len(ins))
	for _, in := range ins {
		sk, err := circuit.ExtractSkeleton(in.Circuit)
		if err != nil {
			return nil, fmt.Errorf("DP reference for %s: %w", in.ID, err)
		}
		res, err := exact.Solve(ctx, sk, a, o)
		if err != nil {
			return nil, fmt.Errorf("DP reference for %s: %w", in.ID, err)
		}
		ref[in.ID] = res.Cost
	}
	return ref, nil
}

// check returns why a map failed ("" when it did not) and whether the
// failure is a wrong output rather than an error the program reported. ref
// holds the expected costs of the map's part, nil when it has none.
func check(r mapRun, ref map[string]int) (reason string, wrong bool) {
	switch {
	case r.err != nil:
		return "error: " + r.err.Error(), false
	case r.res.Cost != 7*r.res.Swaps+4*r.res.Switches:
		return fmt.Sprintf("cost %d does not match %d SWAPs and %d switches", r.res.Cost, r.res.Swaps, r.res.Switches), true
	case r.part.minimal && !r.res.Minimal:
		return "minimality proof lost", true
	case ref != nil && r.res.Cost != ref[r.in.ID]:
		return fmt.Sprintf("cost %d, reference %d", r.res.Cost, ref[r.in.ID]), true
	}
	return "", false
}

// evaluate checks every map of every pass and reports the quality metrics
// of the first pass.
func evaluate(rep *report, passes [][]mapRun, refs map[*libSpec]map[string]int, as archs) error {
	for _, p := range passes {
		for _, r := range p {
			rep.Attempted++
			reason, wrong := check(r, refs[r.part])
			if reason == "" {
				continue
			}
			rep.Failed++
			if wrong {
				rep.Correct = false
			}
			rep.note("failed %s: %s", r.id(), firstLine(reason))
		}
	}
	added, minimal, mustProve := 0, 0, 0
	for _, r := range passes[0] {
		if r.part.minimal {
			mustProve++
		}
		if reason, _ := check(r, refs[r.part]); reason != "" {
			c, err := naiveCost(r.in.Circuit, as[r.part])
			if err != nil {
				return err
			}
			added += c
			continue
		}
		added += r.res.Cost
		if r.part.minimal && r.res.Minimal {
			minimal++
		}
	}
	rep.set("added_cost", float64(added), "ops")
	rep.set("fail_share", share(rep.Failed, rep.Attempted), "ratio")
	if mustProve > 0 {
		rep.set("minimal_share", share(minimal, mustProve), "ratio")
	}
	return nil
}

func firstLine(s string) string {
	s, _, _ = strings.Cut(s, "\n")
	return s
}
