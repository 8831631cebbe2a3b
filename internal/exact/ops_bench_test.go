package exact

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/circuit"
	"repro/internal/revlib"
)

// sinkOps keeps the benchmarked op streams live.
var sinkOps []circuit.MappedOp

// BenchmarkResultOps times materializing a solved mapping into its op
// stream — the work a cache hit repeats on every request: miller_11 on
// QX4, whose 21 gates and two SWAPs exercise the per-transition swap
// searches.
func BenchmarkResultOps(b *testing.B) {
	bm, err := revlib.SuiteByName("miller_11")
	if err != nil {
		b.Fatal(err)
	}
	sk, err := circuit.ExtractSkeleton(bm.Circuit)
	if err != nil {
		b.Fatal(err)
	}
	r, err := Solve(bg, sk, arch.QX4(), Options{Engine: EngineDP})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if sinkOps, err = r.Ops(sk); err != nil {
			b.Fatal(err)
		}
	}
}
