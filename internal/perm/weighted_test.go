package perm

import (
	"reflect"
	"testing"
)

// pathEdges of a 4-vertex path graph 0–1–2–3.
var pathEdges = []Edge{{0, 1}, {1, 2}, {2, 3}}

// TestWeightedTableUniformMatchesBFS: with every weight equal to w the
// weighted table must be exactly w times the BFS swap-count table, with
// identical swap counts along the chosen paths.
func TestWeightedTableUniformMatchesBFS(t *testing.T) {
	const w = 7
	space := NewSpace(4, 3)
	bfs := NewSwapTable(space, pathEdges)
	wt := NewWeightedSwapTable(space, pathEdges, func(Edge) int { return w })
	for a := 0; a < space.Size(); a++ {
		for b := 0; b < space.Size(); b++ {
			d := bfs.MinSwapsIdx(a, b)
			wd, ws := wt.MinWeightIdx(a, b), wt.SwapsAlongIdx(a, b)
			switch {
			case d < 0:
				if wd >= 0 {
					t.Fatalf("(%d,%d): BFS unreachable but weighted dist %d", a, b, wd)
				}
			case wd != w*d || ws != d:
				t.Fatalf("(%d,%d): weighted %d/%d swaps, want %d/%d", a, b, wd, ws, w*d, d)
			}
		}
	}
	// The single-source searches agree: weights scale, paths coincide.
	plain := NewSwapGraph(space, pathEdges, nil)
	weighted := NewSwapGraph(space, pathEdges, func(Edge) int { return w })
	for _, src := range space.Mappings {
		ps, ws := plain.Search(src), weighted.Search(src)
		for _, mp := range space.Mappings {
			if ps.Weight(mp) != ps.Swaps(mp) || ws.Swaps(mp) != ps.Swaps(mp) ||
				(ps.Swaps(mp) >= 0 && ws.Weight(mp) != w*ps.Swaps(mp)) {
				t.Fatalf("%v→%v: plain %d/%d, weighted %d/%d", src, mp, ps.Weight(mp), ps.Swaps(mp), ws.Weight(mp), ws.Swaps(mp))
			}
			pp, _ := ps.PathFrom(mp)
			wp, _ := ws.PathFrom(mp)
			if !reflect.DeepEqual(pp, wp) {
				t.Fatalf("%v→%v: plain path %v, weighted %v", mp, src, pp, wp)
			}
		}
	}
}

// TestWeightedTableDetour: on a triangle with one expensive edge the
// cheapest realization of a transposition routes around it, spending more
// swaps for less weight.
func TestWeightedTableDetour(t *testing.T) {
	tri := []Edge{{0, 1}, {1, 2}, {0, 2}}
	weightOf := func(e Edge) int {
		if e.Normalize() == (Edge{A: 0, B: 1}) {
			return 25 // dearer than the two-swap detour (2 + 2... see below)
		}
		return 7
	}
	space := NewSpace(3, 3)
	g := NewSwapGraph(space, tri, weightOf)
	id := g.Search(IdentityMapping(3))

	// π swapping logical 0 and 1 directly costs 25 on edge {0,1}; the
	// detour swap(0,2), swap(1,2), swap(0,2) costs 21. Weighted distance
	// picks the detour, swaps-along reports its length 3.
	p := Perm{1, 0, 2}
	if got := id.Weight(Mapping(p)); got != 21 {
		t.Errorf("Weight = %d, want 21 (detour)", got)
	}
	if got := id.Swaps(Mapping(p)); got != 3 {
		t.Errorf("Swaps = %d, want 3", got)
	}
	wt := NewWeightedSwapTable(space, tri, weightOf)
	a, b := space.Index(IdentityMapping(3)), space.Index(Mapping(p))
	if wt.MinWeightIdx(a, b) != 21 || wt.SwapsAlongIdx(a, b) != 3 {
		t.Errorf("table: weight %d, swaps %d; want 21, 3", wt.MinWeightIdx(a, b), wt.SwapsAlongIdx(a, b))
	}

	// PathFrom materializes exactly that path: length matches Swaps,
	// applying it lands on the target, never touching the expensive edge,
	// and total weight equals Weight.
	from, to := IdentityMapping(3), Mapping(p)
	path, ok := g.Search(to).PathFrom(from)
	if !ok {
		t.Fatal("PathFrom failed on a connected space")
	}
	if len(path) != 3 {
		t.Fatalf("path length %d, want 3", len(path))
	}
	cur, total := from.Copy(), 0
	for _, e := range path {
		if e.Normalize() == (Edge{A: 0, B: 1}) {
			t.Fatalf("path %v uses the expensive edge", path)
		}
		total += weightOf(e)
		cur = cur.ApplySwap(e.A, e.B)
	}
	if !cur.Equal(to) {
		t.Fatalf("path %v ends at %v, want %v", path, cur, to)
	}
	if total != id.Weight(to) {
		t.Errorf("path weight %d != Weight %d", total, id.Weight(to))
	}
}

// TestWeightedTablePartialSpaceUnreachable: in a partial mapping space on a
// disconnected graph, mappings across components are unreachable (−1), and
// PathFrom reports false.
func TestWeightedTableUnreachable(t *testing.T) {
	space := NewSpace(4, 1) // one logical qubit on 4 physical
	weight := func(Edge) int { return 7 }
	g := NewSwapGraph(space, []Edge{{0, 1}, {2, 3}}, weight)
	from := Mapping{0} // logical 0 on physical 0
	to := Mapping{2}   // ... on physical 2, in the other component
	if got := g.Search(from).Weight(to); got != -1 {
		t.Errorf("Weight across components = %d, want -1", got)
	}
	if _, ok := g.Search(to).PathFrom(from); ok {
		t.Error("PathFrom across components succeeded")
	}
	wt := NewWeightedSwapTable(space, []Edge{{0, 1}, {2, 3}}, weight)
	if got := wt.MinWeightIdx(space.Index(from), space.Index(to)); got != -1 {
		t.Errorf("table weight across components = %d, want -1", got)
	}
}

func TestWeightedTableRejectsBadWeights(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("weight 0 did not panic")
		}
	}()
	NewWeightedSwapTable(NewSpace(2, 2), []Edge{{0, 1}}, func(Edge) int { return 0 })
}
