package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"slices"
	"strings"
	"time"

	qxmap "repro"
	"repro/internal/arch"
	"repro/internal/circuit"
	"repro/internal/cnf"
	"repro/internal/encoder"
	"repro/internal/sat"
)

// probeResult holds the work counters and times of one circuit's direct
// layer calls: encoder.Encode (or EncodeSubsets), then two solves on the
// fresh instance, one under the guard F ≤ cost (the witness, expected
// satisfiable) and one under F ≤ cost−1 (the proof, expected unsatisfiable).
type probeResult struct {
	encode, witness, proof, subsets time.Duration

	vars, clauses, clauses2, clauses3, clausesLong int
	propagations, conflicts, decisions             int64
	connected, orbits                              int
}

// counters lists the probe's work counters by name, for the determinism
// check.
func (p probeResult) counters() map[string]int64 {
	return map[string]int64{
		"encoder.vars": int64(p.vars), "encoder.clauses": int64(p.clauses),
		"encoder.clauses_2": int64(p.clauses2), "encoder.clauses_3": int64(p.clauses3),
		"encoder.clauses_long": int64(p.clausesLong),
		"sat.propagations":     p.propagations, "sat.conflicts": p.conflicts, "sat.decisions": p.decisions,
		"arch.connected_subsets": int64(p.connected), "arch.orbits": int64(p.orbits),
	}
}

func (p *probeResult) add(q probeResult) {
	p.encode += q.encode
	p.witness += q.witness
	p.proof += q.proof
	p.subsets += q.subsets
	p.vars += q.vars
	p.clauses += q.clauses
	p.clauses2 += q.clauses2
	p.clauses3 += q.clauses3
	p.clausesLong += q.clausesLong
	p.propagations += q.propagations
	p.conflicts += q.conflicts
	p.decisions += q.decisions
	p.connected += q.connected
	p.orbits += q.orbits
}

// countClauses reads the solver's DIMACS dump and counts its clauses by
// size; unit clauses count towards the total only.
func countClauses(s *sat.Solver, p *probeResult) error {
	var buf bytes.Buffer
	if err := s.WriteDIMACS(&buf); err != nil {
		return fmt.Errorf("DIMACS dump: %w", err)
	}
	sc := bufio.NewScanner(&buf)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == 'p' || line[0] == 'c' {
			continue
		}
		p.clauses++
		switch n := len(strings.Fields(line)) - 1; {
		case n == 2:
			p.clauses2++
		case n == 3:
			p.clauses3++
		case n > 3:
			p.clausesLong++
		}
	}
	p.vars = s.NumVars()
	return sc.Err()
}

// solveProbes runs the witness and proof solves under the given guard
// assumptions, recording a span for each and the solver's work.
func solveProbes(ctx context.Context, tr *tracer, id string, s *sat.Solver, cost int, witness, proof []sat.Lit, p *probeResult) error {
	before := s.Snapshot()
	t0 := time.Now()
	st := s.SolveContext(ctx, witness...)
	t1 := time.Now()
	tr.add(id, 0, "sat.witness_probe", t0, t1)
	p.witness = t1.Sub(t0)
	if st != sat.Sat {
		return fmt.Errorf("witness probe F ≤ %d: %v, want satisfiable", cost, st)
	}
	if proof != nil {
		st = s.SolveContext(ctx, proof...)
		t2 := time.Now()
		tr.add(id, 0, "sat.proof_probe", t1, t2)
		p.proof = t2.Sub(t1)
		if st != sat.Unsat {
			return fmt.Errorf("proof probe F ≤ %d: %v, want unsatisfiable", cost-1, st)
		}
	}
	after := s.Snapshot()
	p.propagations = after.Propagations - before.Propagations
	p.conflicts = after.Conflicts - before.Conflicts
	p.decisions = after.Decisions - before.Decisions
	return nil
}

// probeExact encodes the §3 instance of c on a and probes it at the cost the
// program returned.
func probeExact(ctx context.Context, tr *tracer, id string, c *qxmap.Circuit, a *qxmap.Architecture, res *qxmap.Result) (probeResult, error) {
	var p probeResult
	sk, err := circuit.ExtractSkeleton(c)
	if err != nil {
		return p, err
	}
	s := sat.NewSolver()
	t0 := time.Now()
	enc, err := encoder.Encode(ctx, encoder.Problem{Skeleton: sk, Arch: a}, cnf.NewBuilder(s))
	t1 := time.Now()
	if err != nil {
		return p, fmt.Errorf("encode: %w", err)
	}
	tr.add(id, 0, "encoder.encode", t0, t1)
	p.encode = t1.Sub(t0)
	if err := countClauses(s, &p); err != nil {
		return p, err
	}
	var proof []sat.Lit
	if res.Cost > 0 {
		proof = []sat.Lit{enc.CostAtMostLit(res.Cost - 1)}
	}
	return p, solveProbes(ctx, tr, id, s, res.Cost, []sat.Lit{enc.CostAtMostLit(res.Cost)}, proof, &p)
}

// probeSubsets rebuilds the §4.1 shared instance the way the exact package
// does (connected subsets, automorphism orbits, one restricted architecture
// per orbit) and probes it: the witness assumes the selector of the orbit
// holding the program's subset, the proof a fresh guard requiring some
// selector.
func probeSubsets(ctx context.Context, tr *tracer, id string, c *qxmap.Circuit, a *qxmap.Architecture, res *qxmap.Result) (probeResult, error) {
	var p probeResult
	sk, err := circuit.ExtractSkeleton(c)
	if err != nil {
		return p, err
	}
	t0 := time.Now()
	subsets := a.ConnectedSubsets(sk.NumQubits)
	orbits := arch.SubsetOrbits(subsets, a.Automorphisms(0))
	t1 := time.Now()
	tr.add(id, 0, "arch.subsets", t0, t1)
	p.subsets = t1.Sub(t0)
	p.connected, p.orbits = len(subsets), len(orbits)

	used := slices.Clone([]int(res.InitialLayout))
	slices.Sort(used)
	winner := -1
	archs := make([]*arch.Arch, len(orbits))
	for i, orbit := range orbits {
		archs[i], _ = a.Restrict(subsets[orbit[0]])
		for _, j := range orbit {
			if slices.Equal(subsets[j], used) {
				winner = i
			}
		}
	}
	if winner < 0 {
		return p, fmt.Errorf("subset %v of the program's layout is not a connected subset", used)
	}

	s := sat.NewSolver()
	b := cnf.NewBuilder(s)
	t2 := time.Now()
	enc, err := encoder.EncodeSubsets(ctx, encoder.SubsetProblem{Skeleton: sk, Archs: archs}, b)
	t3 := time.Now()
	if err != nil {
		return p, fmt.Errorf("encode subsets: %w", err)
	}
	tr.add(id, 0, "encoder.encode", t2, t3)
	p.encode = t3.Sub(t2)
	if err := countClauses(s, &p); err != nil {
		return p, err
	}
	witness := []sat.Lit{enc.Selector(winner), enc.CostAtMostLit(res.Cost)}
	var proof []sat.Lit
	if res.Cost > 0 {
		some := b.NewLit()
		clause := []sat.Lit{some.Not()}
		for i := range orbits {
			clause = append(clause, enc.Selector(i))
		}
		b.AddClause(clause...)
		proof = []sat.Lit{some, enc.CostAtMostLit(res.Cost - 1)}
	}
	return p, solveProbes(ctx, tr, id, s, res.Cost, witness, proof, &p)
}
