package perm

import (
	"reflect"
	"testing"
	"testing/quick"
)

// qx4Edges is the undirected edge set of IBM QX4 (paper Fig. 2), 0-based:
// p1..p5 → 0..4. CM = {(1,0),(2,0),(2,1),(3,2),(3,4),(4,2)}.
func qx4Edges() []Edge {
	return []Edge{{1, 0}, {2, 0}, {2, 1}, {3, 2}, {3, 4}, {4, 2}}
}

func TestNewSwapTableDedupesEdges(t *testing.T) {
	s := NewSpace(3, 3)
	dup := []Edge{{0, 1}, {1, 0}, {0, 1}, {1, 2}}
	if g := NewSwapGraph(s, dup, nil); len(g.Edges) != 2 {
		t.Errorf("got %d edges, want 2", len(g.Edges))
	}
	want := NewSwapTable(s, []Edge{{0, 1}, {1, 2}})
	if got := NewSwapTable(s, dup); !reflect.DeepEqual(got, want) {
		t.Error("duplicate edges changed the table")
	}
}

func TestNewSwapTablePanicsOnBadEdge(t *testing.T) {
	s := NewSpace(3, 3)
	for _, e := range []Edge{{0, 0}, {0, 5}, {-1, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("edge %+v should panic", e)
				}
			}()
			NewSwapTable(s, []Edge{e})
		}()
	}
}

func TestLineGraphDistances(t *testing.T) {
	// Path 0-1-2 with 3 tokens: moving token from one end to the other.
	s := NewSpace(3, 3)
	from := NewSwapGraph(s, []Edge{{0, 1}, {1, 2}}, nil).Search(IdentityMapping(3))
	// Adjacent transposition: 1 swap.
	if got := from.Swaps(Mapping{1, 0, 2}); got != 1 {
		t.Errorf("adjacent swap distance = %d, want 1", got)
	}
	// Reversal (0↔2 with middle fixed) on a path of 3 needs 3 swaps.
	if got := from.Swaps(Mapping{2, 1, 0}); got != 3 {
		t.Errorf("reversal distance = %d, want 3", got)
	}
	// Rotation by one: 2 swaps.
	if got := from.Swaps(Mapping{1, 2, 0}); got != 2 {
		t.Errorf("rotation distance = %d, want 2", got)
	}
}

func TestDisconnectedGraphUnreachable(t *testing.T) {
	// Vertices {0,1} and {2,3} disconnected; moving a token across is
	// impossible.
	s := NewSpace(4, 1)
	g := NewSwapGraph(s, []Edge{{0, 1}, {2, 3}}, nil)
	if got := g.Search(Mapping{0}).Swaps(Mapping{2}); got != -1 {
		t.Errorf("token crossed disconnected components in %d swaps", got)
	}
	if got := g.Search(Mapping{0}).Swaps(Mapping{1}); got != 1 {
		t.Errorf("token moves within its component in %d swaps, want 1", got)
	}
	if _, ok := g.Search(Mapping{3}).PathFrom(Mapping{0}); ok {
		t.Error("PathFrom should fail across components")
	}
	if got := NewSwapTable(s, []Edge{{0, 1}, {2, 3}}).MinSwapsIdx(s.Index(Mapping{0}), s.Index(Mapping{2})); got != -1 {
		t.Errorf("table distance across components = %d, want -1", got)
	}
}

func TestQX4PermSwapsTable(t *testing.T) {
	// Full permutation space on QX4. Every permutation must be realizable
	// (the graph is connected), identity costs 0, single edge swaps cost 1.
	s := NewSpace(5, 5)
	id := NewSwapGraph(s, qx4Edges(), nil).Search(IdentityMapping(5))
	if got := id.Swaps(Mapping(Identity(5))); got != 0 {
		t.Errorf("identity swaps = %d", got)
	}
	for _, e := range qx4Edges() {
		p := Identity(5)
		p[e.A], p[e.B] = p[e.B], p[e.A]
		if got := id.Swaps(Mapping(p)); got != 1 {
			t.Errorf("edge swap %+v costs %d, want 1", e, got)
		}
	}
	// A transposition of non-adjacent qubits costs at least 2; p0↔p4
	// (graph distance 2) costs 3 swaps (move there and back restoring the
	// middle).
	p := Identity(5)
	p[0], p[4] = p[4], p[0]
	if got := id.Swaps(Mapping(p)); got != 3 {
		t.Errorf("p0↔p4 swaps = %d, want 3", got)
	}
	// Every permutation realizable; swaps(π) ≥ unrestricted lower bound.
	for _, pp := range All(5) {
		sw := id.Swaps(Mapping(pp))
		if sw < 0 {
			t.Fatalf("perm %v unrealizable on connected QX4", pp)
		}
		if sw < pp.MinTranspositions() {
			t.Fatalf("perm %v: swaps %d below free lower bound %d", pp, sw, pp.MinTranspositions())
		}
	}
}

func TestSwapPathRealizesMapping(t *testing.T) {
	s := NewSpace(5, 4)
	g := NewSwapGraph(s, qx4Edges(), nil)
	tbl := NewSwapTable(s, qx4Edges())
	f := func(ai, bi uint) bool {
		a := s.Mapping(int(ai % uint(s.Size())))
		b := s.Mapping(int(bi % uint(s.Size())))
		path, ok := g.Search(b).PathFrom(a)
		if !ok {
			return false // QX4 connected: everything reachable
		}
		if len(path) != tbl.MinSwapsIdx(s.Index(a), s.Index(b)) {
			return false
		}
		cur := a.Copy()
		for _, e := range path {
			cur = cur.ApplySwap(e.A, e.B)
		}
		return cur.Equal(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: swap distance is a metric (symmetry + triangle inequality).
func TestSwapDistanceMetric(t *testing.T) {
	s := NewSpace(5, 3)
	tbl := NewSwapTable(s, qx4Edges())
	f := func(ai, bi, ci uint) bool {
		a := int(ai % uint(s.Size()))
		b := int(bi % uint(s.Size()))
		c := int(ci % uint(s.Size()))
		dab := tbl.MinSwapsIdx(a, b)
		dba := tbl.MinSwapsIdx(b, a)
		dac := tbl.MinSwapsIdx(a, c)
		dcb := tbl.MinSwapsIdx(c, b)
		if dab != dba {
			return false
		}
		return dab <= dac+dcb
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestMaxDistanceQX4(t *testing.T) {
	// On the full permutation space every mapping sees the same distances
	// up to relabelling, so the identity's farthest mapping sets the
	// diameter.
	s := NewSpace(5, 5)
	id := NewSwapGraph(s, qx4Edges(), nil).Search(IdentityMapping(5))
	d := 0
	for _, mp := range s.Mappings {
		d = max(d, id.Swaps(mp))
	}
	// The QX4 token-swapping diameter is small but positive; it bounds the
	// per-permutation-point cost in the encoder (7·d).
	if d < 3 || d > 8 {
		t.Errorf("QX4 diameter = %d, outside plausible range [3,8]", d)
	}
	t.Logf("QX4 full-permutation token-swap diameter: %d", d)
}

// TestSwapTableRowsMatchSearch: every row of the all-pairs table is the
// single-source search from that row's mapping, and the search's values
// are symmetric (the cost from b to the source equals the source's to b).
func TestSwapTableRowsMatchSearch(t *testing.T) {
	s := NewSpace(5, 3)
	g := NewSwapGraph(s, qx4Edges(), nil)
	tbl := NewSwapTable(s, qx4Edges())
	for a, mp := range s.Mappings {
		from := g.Search(mp)
		for b, other := range s.Mappings {
			if got, want := from.Swaps(other), tbl.MinSwapsIdx(a, b); got != want {
				t.Fatalf("search from %d to %d = %d swaps, table row says %d", a, b, got, want)
			}
			if got, want := from.Swaps(other), tbl.MinSwapsIdx(b, a); got != want {
				t.Fatalf("search from %d to %d = %d swaps, reverse table entry %d", a, b, got, want)
			}
		}
	}
}

func TestSwapSearchPanicsOutsideSpace(t *testing.T) {
	g := NewSwapGraph(NewSpace(5, 3), qx4Edges(), nil)
	for name, f := range map[string]func(){
		"Search":   func() { g.Search(IdentityMapping(5)) },
		"Swaps":    func() { g.Search(IdentityMapping(3)).Swaps(Mapping{7, 7, 7}) },
		"PathFrom": func() { g.Search(IdentityMapping(3)).PathFrom(Mapping{0, 0, 1}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s outside the space should panic", name)
				}
			}()
			f()
		}()
	}
}
