// Command perfbench is the repository benchmark: it runs one named
// workload from a seed against the public entry points (qxmap.NewMapper /
// MapWith and the built qxmapd binary over HTTP), checks every output
// against a reference, and prints every metric by name with its unit.
//
// Usage (from the repository root; run.sh builds the binaries first):
//
//	bash perfbench/run.sh --workload exact-sat --seed 1 --seconds 40 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are
// the end-to-end metrics; with --trace 1 the run is traced and the metrics
// are the per-layer ones. The lines before it give the host stamp and the
// full report. README.md defines every metric and workload.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"syscall"
	"time"
)

// config is one run's command line.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	qxmapd   string // path of the built qxmapd binary
	outDir   string // scratch space inside the checkout (stores, traces)
}

// budget is the measuring time of the run.
func (c config) budget() time.Duration { return time.Duration(c.seconds * float64(time.Second)) }

// runDeadline bounds a whole run: a run must end within three minutes, so
// anything still mapping after this is cancelled and counted as failed.
const runDeadline = 165 * time.Second

// metricDef is one reported metric; BENCHMARK.json lists the same names,
// units and directions (checked by metrics_test.go).
type metricDef struct {
	name, unit, better string
}

// endToEnd are the gated metrics a user of the system sees: every workload
// reports each of them on an untraced run, and the result line carries
// them. The report adds map_ms_p50, peak_rss_mb, fail_share and the
// workload-specific ones (README.md says why those are not gated).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"wall_s", "s", "lower"},
	{"added_cost", "ops", "lower"},
}

// selfLayers are the layers whose self time a traced run reports.
var selfLayers = []string{"circuit", "encoder", "sat", "exact", "arch", "heuristic", "pipeline", "portfolio", "qxmapd"}

// perLayer are the metrics of a traced run. Every workload reports each of
// them; a layer the workload does not exercise reports 0.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"encoder.encode_ns", "ns", "lower"},
		{"encoder.vars", "count", "lower"},
		{"encoder.clauses", "count", "lower"},
		{"encoder.clauses_2", "count", "lower"},
		{"encoder.clauses_3", "count", "lower"},
		{"encoder.clauses_long", "count", "lower"},
		{"sat.witness_probe_ns", "ns", "lower"},
		{"sat.proof_probe_ns", "ns", "lower"},
		{"sat.propagations", "count", "lower"},
		{"sat.conflicts", "count", "lower"},
		{"sat.decisions", "count", "lower"},
		{"sat.props_per_s", "1/s", "higher"},
		{"exact.solve_ns", "ns", "lower"},
		{"exact.bound_probes", "count", "lower"},
		{"exact.bound_jumps", "count", "higher"},
		{"exact.sat_solves", "count", "lower"},
		{"exact.encodes", "count", "lower"},
		{"exact.conflicts", "count", "lower"},
		{"exact.lower_bound", "ops", "higher"},
		{"exact.lb_gap", "ops", "lower"},
		{"exact.subsets_pruned", "count", "higher"},
		{"exact.family_refutations", "count", "higher"},
		{"exact.orbit_hits", "count", "higher"},
		{"arch.connected_subsets", "count", "lower"},
		{"arch.orbits", "count", "lower"},
		{"arch.subsets_ns", "ns", "lower"},
		{"heuristic.solve_ns", "ns", "lower"},
		{"heuristic.failures.heuristic", "count", "lower"},
		{"heuristic.failures.astar", "count", "lower"},
		{"heuristic.failures.sabre", "count", "lower"},
		{"circuit.skeleton_ns", "ns", "lower"},
		{"pipeline.materialize_ns", "ns", "lower"},
		{"pipeline.verify_ns", "ns", "lower"},
		{"portfolio.hit_ratio", "ratio", "higher"},
		{"portfolio.disk_share", "ratio", "lower"},
		{"store.writes", "count", "lower"},
		{"store.misses", "count", "lower"},
		{"qxmapd.server_ms", "ms", "lower"},
		{"qxmapd.overhead_ms", "ms", "lower"},
	}
	for _, l := range selfLayers {
		defs = append(defs, metricDef{"self_ms." + l, "ms", "lower"})
	}
	return append(defs,
		metricDef{"trace.overhead_ms", "ms", "lower"},
		metricDef{"trace.spans", "count", "lower"},
		metricDef{"determinism.mismatches", "count", "lower"},
	)
}()

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the outcome of one run.
type report struct {
	Stamp     stamp             `json:"stamp"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	Notes     []string          `json:"notes,omitempty"`
}

func newReport() *report { return &report{Correct: true, Metrics: map[string]metric{}} }

func (r *report) set(name string, v float64, unit string) { r.Metrics[name] = metric{v, unit} }

func (r *report) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(context.Context, config) (*report, error){
	exactSat.name:  exactSat.run,
	heuristic.name: heuristic.run,
	"service-mix":  runServiceMix,
}

func main() { os.Exit(run()) }

func run() int {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run")
	flag.Int64Var(&cfg.seed, "seed", 0, "input seed (0 = the paper's Table-1 circuits)")
	flag.Float64Var(&cfg.seconds, "seconds", 25, "measuring time in seconds")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&cfg.qxmapd, "qxmapd", ".bench_build/bin/qxmapd", "path of the built qxmapd binary")
	flag.StringVar(&cfg.outDir, "out", ".bench_build", "directory for stores and traces")
	flag.Parse()
	runner, ok := workloads[cfg.workload]
	if !ok || (trace != 0 && trace != 1) || cfg.seconds <= 0 || cfg.seed < 0 {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %v), --seed ≥ 0, --seconds > 0 and --trace 0|1\n", names)
		return 2
	}
	cfg.trace = trace == 1

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithTimeout(ctx, runDeadline)
	defer cancel()

	rep, err := runner(ctx, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	rep.Stamp = hostStamp(cfg.workload, cfg.seed, cfg.trace)
	if err := printReport(rep, cfg.trace); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if !rep.Correct {
		fmt.Fprintln(os.Stderr, "perfbench: some outputs are wrong (see notes)")
		return 1
	}
	return 0
}

// printReport writes the human-readable lines, the full report as JSON,
// and last the result line with the metrics of the run's kind.
func printReport(rep *report, traced bool) error {
	st, err := json.Marshal(rep.Stamp)
	if err != nil {
		return err
	}
	fmt.Printf("# host %s\n", st)
	names := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := rep.Metrics[n]
		fmt.Printf("%-32s %14.6g %s\n", n, m.Value, m.Unit)
	}
	for _, n := range rep.Notes {
		fmt.Printf("# %s\n", n)
	}
	full, err := json.Marshal(map[string]any{"report": rep})
	if err != nil {
		return err
	}
	fmt.Println(string(full))

	defs := endToEnd
	if traced {
		defs = perLayer
	}
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		m, ok := rep.Metrics[d.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		out[d.name] = m
	}
	last, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rep.Correct, rep.Attempted, rep.Failed, out})
	if err != nil {
		return err
	}
	fmt.Println(string(last))
	return nil
}
