package perm

import (
	"container/heap"
	"fmt"
)

// Edge is an undirected coupling-graph edge between two physical qubits.
// SWAP operations are insertable on any coupled pair regardless of CNOT
// direction (a SWAP decomposes into 3 CNOTs + 4 H in either orientation,
// paper Fig. 3).
type Edge struct{ A, B int }

// Normalize returns the edge with A ≤ B.
func (e Edge) Normalize() Edge {
	if e.A > e.B {
		return Edge{e.B, e.A}
	}
	return e
}

// SwapGraph is the graph the swap searches run on: one node per mapping of
// a Space, and from each mapping one arc per coupling edge, to the mapping
// that swapping the edge's two physical qubits produces. It realizes the
// paper's swaps(π) cost function (Eq. 5), generalized to partial mappings
// (n < m), where unoccupied physical qubits may be used as routing space,
// and to per-edge SWAP weights (the calibration-weighted swaps_w(π)).
type SwapGraph struct {
	space *Space
	// Edges holds the distinct normalized coupling edges, in first-seen
	// order; paths name edges from this list.
	Edges []Edge
	// weight[ei] is the SWAP weight of Edges[ei] (≥ 1); nil when every
	// SWAP counts 1.
	weight []int32
	// next[a·len(Edges)+ei] is the index of the mapping reached from
	// mapping a by swapping Edges[ei].
	next []int32
}

// NewSwapGraph builds the swap graph of the space under the coupling
// edges. A nil weight counts every SWAP as 1; otherwise weight(e) is the
// SWAP weight of edge e and must be ≥ 1, so that every step of a minimal
// path strictly lowers its cost. Invalid edges and weights panic.
func NewSwapGraph(space *Space, edges []Edge, weight func(Edge) int) *SwapGraph {
	g := &SwapGraph{space: space}
	seen := make(map[Edge]bool)
	for _, e := range edges {
		n := e.Normalize()
		if n.A == n.B || n.A < 0 || n.B >= space.M {
			panic(fmt.Sprintf("perm: invalid edge %+v for m=%d", e, space.M))
		}
		if seen[n] {
			continue
		}
		seen[n] = true
		g.Edges = append(g.Edges, n)
		if weight != nil {
			w := weight(n)
			if w < 1 {
				panic(fmt.Sprintf("perm: swap weight %d on %+v must be >= 1", w, n))
			}
			g.weight = append(g.weight, int32(w))
		}
	}
	g.next = make([]int32, space.Size()*len(g.Edges))
	for a := 0; a < space.Size(); a++ {
		for ei, e := range g.Edges {
			g.next[a*len(g.Edges)+ei] = int32(space.swapIndex(a, e.A, e.B))
		}
	}
	return g
}

// search fills swaps[b] with the SWAP count and, under weights, dist[b]
// with the total weight of the cheapest path between mapping src and every
// mapping b, or −1 where b is unreachable. Without weights it is a
// breadth-first search and dist is unused; with them a Dijkstra sweep on
// (weight, swaps), so ties in weight break toward fewer swaps. The swap
// graph is symmetric (every swap undoes itself at the same weight), so the
// values are also the costs from every b to src.
func (g *SwapGraph) search(src int, swaps []int16, dist []int32) {
	for i := range swaps {
		swaps[i] = -1
	}
	swaps[src] = 0
	ne := len(g.Edges)
	if g.weight == nil {
		queue := make([]int32, 1, len(swaps))
		queue[0] = int32(src)
		for head := 0; head < len(queue); head++ {
			a := queue[head]
			for _, b := range g.next[int(a)*ne : int(a)*ne+ne] {
				if swaps[b] == -1 {
					swaps[b] = swaps[a] + 1
					queue = append(queue, b)
				}
			}
		}
		return
	}
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	h := &searchHeap{{0, 0, int32(src)}}
	for h.Len() > 0 {
		it := heap.Pop(h).(searchItem)
		a := it.node
		if it.w != dist[a] || it.s != swaps[a] {
			continue // stale entry
		}
		for ei, b := range g.next[int(a)*ne : int(a)*ne+ne] {
			nw, ns := dist[a]+g.weight[ei], swaps[a]+1
			if dist[b] == -1 || nw < dist[b] || (nw == dist[b] && ns < swaps[b]) {
				dist[b], swaps[b] = nw, ns
				heap.Push(h, searchItem{nw, ns, b})
			}
		}
	}
}

// searchItem is a priority-queue entry for the Dijkstra sweep.
type searchItem struct {
	w    int32
	s    int16
	node int32
}

type searchHeap []searchItem

func (h searchHeap) Len() int { return len(h) }
func (h searchHeap) Less(i, j int) bool {
	if h[i].w != h[j].w {
		return h[i].w < h[j].w
	}
	return h[i].s < h[j].s
}
func (h searchHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *searchHeap) Push(x any)   { *h = append(*h, x.(searchItem)) }
func (h *searchHeap) Pop() (x any) { old := *h; n := len(old); x = old[n-1]; *h = old[:n-1]; return }

// SwapSearch holds the cheapest swap paths between one mapping, its
// source, and every mapping of the graph's space: the result of a single
// search, for callers that need one row of the all-pairs tables.
type SwapSearch struct {
	g     *SwapGraph
	src   int
	swaps []int16
	dist  []int32 // nil without weights, where the weight is the swap count
}

// Search runs one search from src: a breadth-first search, or a Dijkstra
// sweep on (weight, swaps) when the graph has SWAP weights. It panics if
// src is not in the graph's space.
func (g *SwapGraph) Search(src Mapping) *SwapSearch {
	s := &SwapSearch{g: g, src: g.space.mustIndex(src), swaps: make([]int16, g.space.Size())}
	if g.weight != nil {
		s.dist = make([]int32, g.space.Size())
	}
	g.search(s.src, s.swaps, s.dist)
	return s
}

// Swaps returns the number of SWAPs on the cheapest path between the
// source and mp, or −1 if mp is unreachable. Under weights the path is the
// (weight, swaps)-lexicographically minimal one.
func (s *SwapSearch) Swaps(mp Mapping) int { return int(s.swaps[s.g.space.mustIndex(mp)]) }

// Weight returns the total SWAP weight of the cheapest path between the
// source and mp (its swap count when the graph has no weights), or −1 if
// mp is unreachable.
func (s *SwapSearch) Weight(mp Mapping) int {
	if s.dist == nil {
		return s.Swaps(mp)
	}
	return int(s.dist[s.g.space.mustIndex(mp)])
}

// PathFrom returns the edge sequence of the cheapest path from mapping
// from to the source; its length is Swaps(from). From each mapping the
// path takes the lowest-index edge whose swap lies on a cheapest path. It
// returns nil, false if the source is unreachable from from.
func (s *SwapSearch) PathFrom(from Mapping) ([]Edge, bool) {
	ci := s.g.space.mustIndex(from)
	if s.swaps[ci] < 0 {
		return nil, false
	}
	ne := len(s.g.Edges)
	var path []Edge
	for ci != s.src {
		step := -1
		for ei, nb := range s.g.next[ci*ne : ci*ne+ne] {
			if s.swaps[nb] == s.swaps[ci]-1 && (s.dist == nil || s.dist[nb] == s.dist[ci]-s.g.weight[ei]) {
				step = ei
				ci = int(nb)
				break
			}
		}
		if step < 0 {
			return nil, false
		}
		path = append(path, s.g.Edges[step])
	}
	return path, true
}

// SwapTable holds all-pairs minimal swap counts between the mappings of a
// Space, for the DP engine, which charges every mapping-to-mapping move.
type SwapTable struct {
	// dist[a][b] = minimal number of SWAPs transforming mapping a into b,
	// or -1 if unreachable (disconnected coupling graph).
	dist [][]int16
}

// NewSwapTable computes the all-pairs swap-count table by one
// breadth-first search from every mapping. Complexity O(|Space|·|Edges|)
// per row.
func NewSwapTable(space *Space, edges []Edge) *SwapTable {
	g := NewSwapGraph(space, edges, nil)
	t := &SwapTable{dist: make([][]int16, space.Size())}
	for src := range t.dist {
		t.dist[src] = make([]int16, space.Size())
		g.search(src, t.dist[src], nil)
	}
	return t
}

// MinSwapsIdx returns the minimal number of SWAPs transforming the mapping
// with dense index a into the one with index b, or −1 if unreachable.
func (t *SwapTable) MinSwapsIdx(a, b int) int { return int(t.dist[a][b]) }
