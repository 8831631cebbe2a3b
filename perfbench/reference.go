package main

import (
	_ "embed"
	"encoding/json"
	"fmt"

	qxmap "repro"
	"repro/internal/circuit"
)

// expectedSeed0 holds the expected added cost F of every seed-0 circuit of
// the SAT workloads, keyed by workload and input ID. It was computed with
// the DP engine; expected_test.go regenerates it (-update) and checks it
// against the BENCH_*.json snapshots.
//
//go:embed expected_seed0.json
var expectedSeed0JSON []byte

func expectedSeed0() (map[string]map[string]int, error) {
	var m map[string]map[string]int
	if err := json.Unmarshal(expectedSeed0JSON, &m); err != nil {
		return nil, fmt.Errorf("expected_seed0.json: %w", err)
	}
	return m, nil
}

// naiveCost is the cost charged for a circuit the program failed to map:
// every CNOT is routed on its own, from the identity layout, by swapping
// its control along a shortest path until it neighbours the target, plus
// one direction switch when the device only couples the other way. It is
// an upper bound on F under the paper's 7/4 model, so turning a failure
// into any valid mapping never reads as a loss in quality.
func naiveCost(c *qxmap.Circuit, a *qxmap.Architecture) (int, error) {
	sk, err := circuit.ExtractSkeleton(c)
	if err != nil {
		return 0, err
	}
	m := a.NumQubits()
	adj := make([][]int, m)
	for _, p := range a.UndirectedEdges() {
		adj[p.A] = append(adj[p.A], p.B)
		adj[p.B] = append(adj[p.B], p.A)
	}
	phys := make([]int, m) // logical → physical
	held := make([]int, m) // physical → logical
	for i := range phys {
		phys[i], held[i] = i, i
	}
	cost := 0
	for _, g := range sk.Gates {
		path := shortestPath(adj, phys[g.Control], phys[g.Target])
		if path == nil {
			return 0, fmt.Errorf("naive routing: %s is not connected", a)
		}
		for i := 0; i+2 < len(path); i++ {
			p, q := path[i], path[i+1]
			lp, lq := held[p], held[q]
			held[p], held[q] = lq, lp
			phys[lp], phys[lq] = q, p
			cost += 7
		}
		if !a.Allows(phys[g.Control], phys[g.Target]) {
			cost += 4
		}
	}
	return cost, nil
}

// shortestPath returns a BFS path from s to t (inclusive), nil if none.
func shortestPath(adj [][]int, s, t int) []int {
	prev := make([]int, len(adj))
	for i := range prev {
		prev[i] = -1
	}
	prev[s] = s
	queue := []int{s}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		if u == t {
			break
		}
		for _, v := range adj[u] {
			if prev[v] < 0 {
				prev[v] = u
				queue = append(queue, v)
			}
		}
	}
	if prev[t] < 0 {
		return nil
	}
	var path []int
	for v := t; v != s; v = prev[v] {
		path = append(path, v)
	}
	path = append(path, s)
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	return path
}
