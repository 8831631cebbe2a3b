package exact

import (
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/circuit"
	"repro/internal/cnf"
	"repro/internal/encoder"
	"repro/internal/revlib"
	"repro/internal/sat"
)

// BenchmarkMiller11SAT times the §3 binary descent on miller_11 and reports
// the CDCL engine's throughput alongside: conflicts/op (the search's size,
// deterministic on one thread) and props/s (unit propagations per second of
// search, the engine's speed).
func BenchmarkMiller11SAT(b *testing.B) {
	bm, err := revlib.SuiteByName("miller_11")
	if err != nil {
		b.Fatal(err)
	}
	sk, err := circuit.ExtractSkeleton(bm.Circuit)
	if err != nil {
		b.Fatal(err)
	}
	a := arch.QX4()
	opts := SATOptions{BinaryDescent: true}
	var conflicts int64
	for i := 0; i < b.N; i++ {
		r, err := Solve(bg, sk, a, Options{Engine: EngineSAT, SAT: opts})
		if err != nil || r.Cost != 26 {
			b.Fatalf("cost=%v err=%v", r, err)
		}
		conflicts += r.SATConflicts
	}
	b.StopTimer()

	// Solve keeps its solver to itself, so replay the same descent on a
	// solver held here to read the propagation count and time the search.
	p := encoder.Problem{Skeleton: sk, Arch: a, PermBefore: PermBefore(sk, StrategyAll)}
	solver := sat.New(sat.Options{})
	enc, err := encoder.Encode(bg, p, cnf.NewBuilder(solver))
	if err != nil {
		b.Fatal(err)
	}
	start := time.Now()
	if _, _, err := descend(bg, solver, single{enc}, &Result{}, opts, opts.lowerBound(p)-1); err != nil {
		b.Fatal(err)
	}
	search := time.Since(start)
	snap := solver.Snapshot()
	if snap.Conflicts != conflicts/int64(b.N) {
		b.Fatalf("replayed descent spent %d conflicts, Solve %d: the replay is not the timed search", snap.Conflicts, conflicts/int64(b.N))
	}
	b.ReportMetric(float64(conflicts)/float64(b.N), "conflicts/op")
	b.ReportMetric(float64(snap.Propagations)/search.Seconds(), "props/s")
}
