package main

import (
	"context"
	"fmt"
	"sort"
	"time"
)

// workCounters lists the program-reported work of one map by name, for the
// determinism check: at one SAT thread every one must repeat exactly.
func workCounters(r mapRun) map[string]int64 {
	if r.res == nil {
		return map[string]int64{"error": 1}
	}
	s := r.res.Stats
	return map[string]int64{
		"cost": int64(r.res.Cost), "exact.sat_solves": int64(s.SATSolves), "exact.encodes": int64(s.SATEncodes),
		"exact.conflicts": s.SATConflicts, "exact.bound_probes": int64(s.BoundProbes),
		"exact.bound_jumps": int64(s.BoundJumps), "exact.lower_bound": int64(s.LowerBound),
		"exact.subsets_pruned": int64(s.SubsetsPruned), "exact.family_refutations": int64(s.CoreFamilyRefutations),
		"exact.orbit_hits": int64(s.OrbitHits),
	}
}

// diffCounters adds to bad the name of every counter that differs.
func diffCounters(a, b map[string]int64, bad map[string]bool) {
	for k, v := range a {
		if b[k] != v {
			bad[k] = true
		}
	}
}

// traceMetrics fills in the per-layer metrics of a traced library run from
// the traced pass b, its direct layer probes, and the determinism check of
// pass a against pass b.
func traceMetrics(ctx context.Context, rep *report, as archs, passA, passB []mapRun, overhead time.Duration, tr *tracer) error {
	for _, d := range perLayer {
		rep.set(d.name, 0, d.unit)
	}
	ns := func(d time.Duration) float64 { return float64(d.Nanoseconds()) }
	var exactNS, heurNS, skelNS, matNS, verNS time.Duration
	var bound, jumps, solves, encodes, lb, gap, pruned, fam, orbit int
	var conflicts int64
	failures := map[string]int{}
	for _, r := range passB {
		if r.err != nil {
			failures[r.method.String()]++
			continue
		}
		s := r.res.Stats
		skelNS += s.SkeletonTime
		matNS += s.MaterializeTime
		verNS += s.VerifyTime
		if isHeuristic(r.method) {
			heurNS += s.SolveTime
			continue
		}
		exactNS += s.SolveTime
		bound += s.BoundProbes
		jumps += s.BoundJumps
		solves += s.SATSolves
		encodes += s.SATEncodes
		conflicts += s.SATConflicts
		lb += s.LowerBound
		gap += r.res.Cost - s.LowerBound
		pruned += s.SubsetsPruned
		fam += s.CoreFamilyRefutations
		orbit += s.OrbitHits
	}
	rep.set("exact.solve_ns", ns(exactNS), "ns")
	rep.set("exact.bound_probes", float64(bound), "count")
	rep.set("exact.bound_jumps", float64(jumps), "count")
	rep.set("exact.sat_solves", float64(solves), "count")
	rep.set("exact.encodes", float64(encodes), "count")
	rep.set("exact.conflicts", float64(conflicts), "count")
	rep.set("exact.lower_bound", float64(lb), "ops")
	rep.set("exact.lb_gap", float64(gap), "ops")
	rep.set("exact.subsets_pruned", float64(pruned), "count")
	rep.set("exact.family_refutations", float64(fam), "count")
	rep.set("exact.orbit_hits", float64(orbit), "count")
	rep.set("heuristic.solve_ns", ns(heurNS), "ns")
	for _, m := range []string{"heuristic", "astar", "sabre"} {
		rep.set("heuristic.failures."+m, float64(failures[m]), "count")
	}
	rep.set("circuit.skeleton_ns", ns(skelNS), "ns")
	rep.set("pipeline.materialize_ns", ns(matNS), "ns")
	rep.set("pipeline.verify_ns", ns(verNS), "ns")
	rep.set("trace.overhead_ms", float64(overhead)/float64(time.Millisecond), "ms")

	// The direct layer calls come after the timed passes, outside their
	// spans, so they are not part of the tracing overhead.
	bad := map[string]bool{}
	var total probeResult
	replayed := map[*libSpec]bool{}
	for _, r := range passB {
		if r.err != nil || r.part.probe == nil {
			continue
		}
		p, err := r.part.probe(ctx, tr, r.id(), r.in.Circuit, as[r.part], r.res)
		if err != nil {
			rep.Correct = false
			rep.note("probe %s: %v", r.id(), err)
			continue
		}
		if !replayed[r.part] {
			// Replay each part's first probe on a fresh instance: its
			// work counters must repeat exactly.
			again, err := r.part.probe(ctx, nil, r.id(), r.in.Circuit, as[r.part], r.res)
			if err != nil {
				return fmt.Errorf("probe replay %s: %w", r.id(), err)
			}
			diffCounters(p.counters(), again.counters(), bad)
			replayed[r.part] = true
		}
		total.add(p)
	}
	rep.set("encoder.encode_ns", ns(total.encode), "ns")
	rep.set("encoder.vars", float64(total.vars), "count")
	rep.set("encoder.clauses", float64(total.clauses), "count")
	rep.set("encoder.clauses_2", float64(total.clauses2), "count")
	rep.set("encoder.clauses_3", float64(total.clauses3), "count")
	rep.set("encoder.clauses_long", float64(total.clausesLong), "count")
	rep.set("sat.witness_probe_ns", ns(total.witness), "ns")
	rep.set("sat.proof_probe_ns", ns(total.proof), "ns")
	rep.set("sat.propagations", float64(total.propagations), "count")
	rep.set("sat.conflicts", float64(total.conflicts), "count")
	rep.set("sat.decisions", float64(total.decisions), "count")
	if busy := total.witness + total.proof; busy > 0 {
		rep.set("sat.props_per_s", float64(total.propagations)/busy.Seconds(), "1/s")
	}
	rep.set("arch.connected_subsets", float64(total.connected), "count")
	rep.set("arch.orbits", float64(total.orbits), "count")
	rep.set("arch.subsets_ns", ns(total.subsets), "ns")

	for i := range passA {
		diffCounters(workCounters(passA[i]), workCounters(passB[i]), bad)
	}
	reportDeterminism(rep, bad)

	for l, v := range layerSelfMS(tr.spans, selfLayers) {
		rep.set("self_ms."+l, v, "ms")
	}
	rep.set("trace.spans", float64(len(tr.spans)), "count")
	return nil
}

// reportDeterminism records how many work counters failed to repeat and
// names them.
func reportDeterminism(rep *report, bad map[string]bool) {
	names := make([]string, 0, len(bad))
	for k := range bad {
		names = append(names, k)
	}
	sort.Strings(names)
	rep.set("determinism.mismatches", float64(len(names)), "count")
	if len(names) > 0 {
		rep.note("work counters that did not repeat: %v", names)
	}
}
