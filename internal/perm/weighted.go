package perm

// WeightedSwapTable is the SwapTable generalized to per-edge SWAP weights:
// dist minimizes total weight instead of swap count, realizing the
// calibration-weighted swaps_w(π) cost. Ties in weight break toward fewer
// swaps, and the swap count along the chosen minimum-weight path is stored
// alongside the weight so decoded solutions can be rematerialized into an
// operation sequence of exactly that length.
//
// With all weights equal to w the table degenerates to w · SwapTable.dist
// — callers should prefer the plain BFS table in that case (it is cheaper
// and the canonical count-minimal path shape).
type WeightedSwapTable struct {
	// dist[a][b] = minimal total weight transforming mapping a into b, or
	// -1 if unreachable.
	dist [][]int32
	// swaps[a][b] = number of SWAPs on the (weight, swaps)-lexicographically
	// minimal path, or -1.
	swaps [][]int16
}

// NewWeightedSwapTable computes the all-pairs weighted swap-distance table
// by a Dijkstra sweep from every mapping, with weight(e) the SWAP weight
// of coupling edge e (must be ≥ 1 so paths strictly descend).
func NewWeightedSwapTable(space *Space, edges []Edge, weight func(Edge) int) *WeightedSwapTable {
	g := NewSwapGraph(space, edges, weight)
	size := space.Size()
	t := &WeightedSwapTable{dist: make([][]int32, size), swaps: make([][]int16, size)}
	for src := 0; src < size; src++ {
		t.dist[src], t.swaps[src] = make([]int32, size), make([]int16, size)
		g.search(src, t.swaps[src], t.dist[src])
	}
	return t
}

// MinWeightIdx returns the minimal total SWAP weight transforming the
// mapping with dense index a into the one with index b, or −1 if
// unreachable.
func (t *WeightedSwapTable) MinWeightIdx(a, b int) int { return int(t.dist[a][b]) }

// SwapsAlongIdx returns the SWAP count of the chosen minimum-weight path
// between dense indices, or −1 if unreachable.
func (t *WeightedSwapTable) SwapsAlongIdx(a, b int) int { return int(t.swaps[a][b]) }
