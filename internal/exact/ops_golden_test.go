package exact

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"testing"

	"repro/internal/arch"
	"repro/internal/circuit"
	"repro/internal/perm"
	"repro/internal/revlib"
)

// TestOpsGolden pins the materialized SWAP paths byte for byte: the op
// streams Result.Ops rebuilds for the five BENCH rows on QX4 (DP and SAT),
// a ring6 §3 instance and a calibrated QX4 instance, plus one SHA-256 per
// mapping space over the minimal swap path of every (from, to) pair. Any
// change to how paths are searched or walked that alters a single edge
// fails here.
func TestOpsGolden(t *testing.T) {
	var out bytes.Buffer
	out.WriteString("# Result.Ops op streams and swap-path digests; go test -run TestOpsGolden -update rewrites.\n")

	qx4 := arch.QX4()
	for _, name := range []string{"3_17_13", "ex-1_166", "ham3_102", "miller_11", "4gt11_84"} {
		bm, err := revlib.SuiteByName(name)
		if err != nil {
			t.Fatal(err)
		}
		sk, err := circuit.ExtractSkeleton(bm.Circuit)
		if err != nil {
			t.Fatal(err)
		}
		for _, engine := range []Engine{EngineDP, EngineSAT} {
			writeOpsLine(t, &out, "qx4 "+name, sk, qx4, engine)
		}
	}
	ring6 := arch.Ring(6)
	writeOpsLine(t, &out, "ring6 random(5,4,12)", randomSkeleton(5, 4, 12), ring6, EngineDP)
	writeOpsLine(t, &out, "ring6 random(6,3,6)", randomSkeleton(6, 3, 6), ring6, EngineSAT)
	cal := nonUniformQX4(t)
	for _, engine := range []Engine{EngineDP, EngineSAT} {
		writeOpsLine(t, &out, "qx4-cal random(7,4,10)", randomSkeleton(7, 4, 10), cal, engine)
	}

	for _, sp := range []struct {
		name string
		a    *arch.Arch
		n    int
	}{
		{"qx4 (5,3)", qx4, 3},
		{"qx4 (5,5)", qx4, 5},
		{"qx4-cal (5,3)", cal, 3},
		{"qx4-cal (5,5)", cal, 5},
	} {
		fmt.Fprintf(&out, "paths %s %x\n", sp.name, swapPathDigest(sp.a, sp.n))
	}

	checkGolden(t, "ops.golden", out.Bytes())
}

// writeOpsLine solves sk on a with the engine and writes one golden line:
// the label, engine, cost and the op stream Result.Ops materializes.
func writeOpsLine(t *testing.T, out *bytes.Buffer, label string, sk *circuit.Skeleton, a *arch.Arch, engine Engine) {
	t.Helper()
	r, err := Solve(bg, sk, a, Options{Engine: engine})
	if err != nil {
		t.Fatalf("%s engine %d: %v", label, engine, err)
	}
	ops, err := r.Ops(sk)
	if err != nil {
		t.Fatalf("%s %s: Ops: %v", label, r.Engine, err)
	}
	fmt.Fprintf(out, "ops %s %s cost=%d:", label, r.Engine, r.Cost)
	for _, op := range ops {
		switch {
		case op.Swap:
			fmt.Fprintf(out, " s%d-%d", op.A, op.B)
		case op.Switched:
			fmt.Fprintf(out, " g%d:%d>%dh", op.GateIndex, op.Control, op.Target)
		default:
			fmt.Fprintf(out, " g%d:%d>%d", op.GateIndex, op.Control, op.Target)
		}
	}
	out.WriteString("\n")
}

// swapPathDigest hashes the minimal swap path between every ordered pair
// of mappings of the (m, n) space of a, in (from, to) index order, under
// a's cost model.
func swapPathDigest(a *arch.Arch, n int) []byte {
	space := perm.NewSpace(a.NumQubits(), n)
	var weight func(perm.Edge) int
	if cm := a.Cost(); !cm.UniformSwap() {
		weight = cm.EdgeSwapWeight
	}
	g := perm.NewSwapGraph(space, a.UndirectedEdges(), weight)
	toward := make([]*perm.SwapSearch, space.Size())
	for to := range toward {
		toward[to] = g.Search(space.Mapping(to))
	}
	h := sha256.New()
	for from := 0; from < space.Size(); from++ {
		for to := 0; to < space.Size(); to++ {
			path, ok := toward[to].PathFrom(space.Mapping(from))
			fmt.Fprintf(h, "%d %d %t:", from, to, ok)
			for _, e := range path {
				fmt.Fprintf(h, " %d-%d", e.A, e.B)
			}
			fmt.Fprintln(h)
		}
	}
	return h.Sum(nil)
}
