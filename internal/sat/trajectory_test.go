package sat

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// trajectoryGolden pins the search trajectory of the single-thread solver:
// the work counters below are a fingerprint of every decision, propagation
// and conflict the search makes. A hot-path change that claims to leave the
// search unchanged must leave this file byte-identical; a change that alters
// the search on purpose rewrites it with the block the failing test prints.
const trajectoryGolden = "testdata/trajectory.golden"

// trajectoryLine renders the counters the golden pins.
func trajectoryLine(name string, st Status, s Stats) string {
	return fmt.Sprintf("%s %v decisions=%d propagations=%d conflicts=%d learnt=%d removed=%d subsumed=%d arenagcs=%d",
		name, st, s.Decisions, s.Propagations, s.Conflicts, s.Learnt, s.Removed, s.Subsumed, s.ArenaGCs)
}

// guardedProbes replays the exact engine's incremental pattern: one
// instance, a chain of guard literals each forbidding one more hole of a
// pigeonhole formula, and one Solve per prefix of the guards — the
// tightening bound probes, ending in an UNSAT refutation.
func guardedProbes(pigeons, holes, probes int) (*Solver, [][]Lit) {
	s := NewSolver()
	pigeonhole(s, pigeons, holes)
	guards := newVars(s, holes)
	for h := 0; h < holes; h++ {
		for p := 0; p < pigeons; p++ {
			s.AddClause(guards[h].Neg(), Var(p*holes+h).Neg())
		}
	}
	seq := make([][]Lit, probes)
	for k := range seq {
		for g := 0; g <= k; g++ {
			seq[k] = append(seq[k], guards[g].Pos())
		}
	}
	return s, seq
}

// random3SAT adds a deterministic random 3-CNF near the satisfiability
// threshold; every variable is allocated first.
func random3SAT(s *Solver, nVars, nClauses int, seed int64) []Var {
	vs := newVars(s, nVars)
	rng := newRng(seed)
	for c := 0; c < nClauses; c++ {
		var cl [3]Lit
		for i := range cl {
			cl[i] = vs[rng.intn(nVars)].Lit(rng.next()&1 == 1)
		}
		s.AddClause(cl[:]...)
	}
	return vs
}

func TestSearchTrajectoryGolden(t *testing.T) {
	var got []string

	files, err := filepath.Glob(filepath.Join("testdata", "*.cnf"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no testdata CNFs found: %v", err)
	}
	for _, path := range files {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		s, err := ParseDIMACS(f)
		f.Close()
		if err != nil {
			t.Fatalf("parse %s: %v", path, err)
		}
		st := s.Solve()
		got = append(got, trajectoryLine(filepath.Base(path), st, s.Snapshot()))
	}

	php := NewSolver()
	pigeonhole(php, 8, 7)
	st := php.Solve()
	got = append(got, trajectoryLine("php_8_7", st, php.Snapshot()))

	s, seq := guardedProbes(8, 11, 4)
	for k, assumptions := range seq {
		st := s.Solve(assumptions...)
		got = append(got, trajectoryLine(fmt.Sprintf("guarded_php_8_11/probe%d", k+1), st, s.Snapshot()))
	}

	r := NewSolver()
	vs := random3SAT(r, 250, 1060, 7)
	var assumptions []Lit
	for k := 0; k < 5; k++ {
		// Each probe also flips one more variable of the previous model,
		// as a tightening bound excludes the incumbent.
		v := vs[k*29]
		assumptions = append(assumptions, v.Lit(!r.Value(v)))
		st := r.Solve(assumptions...)
		got = append(got, trajectoryLine(fmt.Sprintf("random3sat_250_1060/probe%d", k+1), st, r.Snapshot()))
	}

	gotText := strings.Join(got, "\n") + "\n"
	want, err := os.ReadFile(trajectoryGolden)
	if err != nil {
		t.Fatalf("read golden: %v", err)
	}
	if gotText != string(want) {
		t.Fatalf("search trajectory changed; if the change to the search is intended, replace %s with:\n%s", trajectoryGolden, gotText)
	}
}
