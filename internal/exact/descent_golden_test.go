package exact

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/circuit"
)

// TestDescentGolden pins the SAT bound descent's trajectory byte for byte:
// for linear and binary descent, on the plain §3 instance (SolveSAT) and on
// the shared §4.1 subset instance, every case records the outcome (cost,
// minimality, anytime gap) and the work it took (solves, bound probes, core
// jumps, conflicts, lower bound, pruned subsets, family refutations, orbit
// hits, encodes). All runs use one deterministic SAT thread, so any change
// to probe order, guard minting or assumption order shows up as a differing
// counter.
func TestDescentGolden(t *testing.T) {
	var out bytes.Buffer
	out.WriteString("# SAT descent outcomes and counters at one thread; go test -run TestDescentGolden -update rewrites.\n")
	for _, c := range descentCases(t) {
		for _, binary := range []bool{false, true} {
			opts := c.opts
			opts.Engine = EngineSAT
			opts.SAT.BinaryDescent = binary
			mode := "linear"
			if binary {
				mode = "binary"
			}
			r, err := Solve(bg, c.sk, c.a, opts)
			fmt.Fprintf(&out, "%s %s: %s\n", c.name, mode, descentLine(r, err))
		}
	}
	checkGolden(t, "descent.golden", out.Bytes())
}

type descentCase struct {
	name string
	sk   *circuit.Skeleton
	a    *arch.Arch
	opts Options
}

// descentCases lists the golden's instances: the QX4 Table-1 rows on both
// instance kinds; Table-1 rows and random 3-qubit skeletons through the
// §4.1 subsets of larger architectures, among them instances whose subsets
// differ in admissible lower bound, so incumbents retire subsets; a
// StartBound below the optimum (relaxed in place) and one above it; the
// bound-per-probe baseline without core jumps or lower bound; and conflict
// budgets that end the descent before its first model or after it.
func descentCases(t *testing.T) []descentCase {
	t.Helper()
	sks := table1Skeletons(t)
	qx4 := arch.QX4()
	var cs []descentCase
	add := func(name string, sk *circuit.Skeleton, a *arch.Arch, subsets bool, sat SATOptions) {
		kind := a.Name()
		if subsets {
			kind += "-subsets"
		}
		cs = append(cs, descentCase{kind + " " + name, sk, a, Options{UseSubsets: subsets, SAT: sat}})
	}
	for _, name := range []string{"3_17_13", "ex-1_166", "ham3_102", "miller_11", "4gt11_84"} {
		add(name, sks[name], qx4, false, SATOptions{})
		if sks[name].NumQubits < qx4.NumQubits() {
			add(name, sks[name], qx4, true, SATOptions{})
		}
	}
	for _, a := range []*arch.Arch{arch.HeavyHex27(), arch.Ring(6)} {
		add("ham3_102", sks["ham3_102"], a, true, SATOptions{})
	}
	add("random(6,3,6)", randomSkeleton(6, 3, 6), arch.Ring(6), false, SATOptions{})
	triangle := mkSkeleton(3, [2]int{0, 1}, [2]int{1, 2}, [2]int{0, 2}, [2]int{1, 0}, [2]int{2, 1})
	for _, a := range []*arch.Arch{qx4, arch.QX2()} {
		add("triangle", triangle, a, true, SATOptions{})
	}
	add("random(3,3,6)", randomSkeleton(3, 3, 6), arch.Grid(3, 3), true, SATOptions{})
	add("random(3,3,6)", randomSkeleton(3, 3, 6), arch.QX5(), true, SATOptions{})

	ex := sks["ex-1_166"]
	for _, subsets := range []bool{false, true} {
		add("ex-1_166 start=8", ex, qx4, subsets, SATOptions{StartBound: 8})
		add("ex-1_166 start=30", ex, qx4, subsets, SATOptions{StartBound: 30})
		add("ex-1_166 baseline", ex, qx4, subsets, SATOptions{NoCoreJumps: true, NoLowerBound: true})
		add("triangle start=3", triangle, qx4, subsets, SATOptions{StartBound: 3})
		for _, budget := range []int64{1, 200, 400} {
			add(fmt.Sprintf("random(3,4,8) conflicts=%d", budget), randomSkeleton(3, 4, 8), qx4, subsets, SATOptions{MaxConflicts: budget})
		}
	}
	return cs
}

// descentLine renders one run's outcome and counters, or its error.
func descentLine(r *Result, err error) string {
	var s string
	if r != nil {
		s = fmt.Sprintf("cost=%d minimal=%t degraded=%t gap=%d solves=%d probes=%d jumps=%d conflicts=%d lb=%d pruned=%d famref=%d orbits=%d encodes=%d",
			r.Cost, r.Minimal, r.Degraded, r.BoundGap, r.SATSolves, r.BoundProbes, r.BoundJumps, r.SATConflicts,
			r.LowerBound, r.SubsetsPruned, r.CoreFamilyRefutations, r.OrbitHits, r.SATEncodes)
	}
	if err != nil {
		s = strings.TrimSpace(s + " err=" + err.Error())
	}
	return s
}

var updateGolden = flag.Bool("update", false, "rewrite the testdata/*.golden files")

// checkGolden compares got with testdata/<name>, or rewrites the file under
// -update, reporting the first differing line.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gotLines, wantLines := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := range gotLines {
		if i >= len(wantLines) || gotLines[i] != wantLines[i] {
			t.Fatalf("%s differs at line %d:\n got: %s\nwant: %s", name, i+1, gotLines[i], lineOr(wantLines, i))
		}
	}
	t.Fatalf("%s differs: got %d lines, want %d", name, len(gotLines), len(wantLines))
}

func lineOr(lines []string, i int) string {
	if i < len(lines) {
		return lines[i]
	}
	return "<missing>"
}
