package perm

import "fmt"

// Mapping is an injective assignment of logical qubits to physical qubits:
// m[j] = i means logical qubit j is held by physical qubit i. A Mapping over
// n logical and m physical qubits has length n with distinct values in
// [0, m).
type Mapping []int

// IdentityMapping returns the mapping j ↦ j for n logical qubits.
func IdentityMapping(n int) Mapping {
	m := make(Mapping, n)
	for j := range m {
		m[j] = j
	}
	return m
}

// Valid reports whether the mapping is injective with all values in [0, m).
func (mp Mapping) Valid(m int) bool {
	seen := make([]bool, m)
	for _, i := range mp {
		if i < 0 || i >= m || seen[i] {
			return false
		}
		seen[i] = true
	}
	return true
}

// Copy returns a copy of the mapping.
func (mp Mapping) Copy() Mapping { return append(Mapping(nil), mp...) }

// Equal reports whether two mappings are identical.
func (mp Mapping) Equal(o Mapping) bool {
	if len(mp) != len(o) {
		return false
	}
	for j, i := range mp {
		if o[j] != i {
			return false
		}
	}
	return true
}

// PhysToLogical returns the inverse view: r[i] = logical qubit held by
// physical qubit i, or −1 if i is unoccupied.
func (mp Mapping) PhysToLogical(m int) []int {
	r := make([]int, m)
	for i := range r {
		r[i] = -1
	}
	for j, i := range mp {
		r[i] = j
	}
	return r
}

// ApplySwap returns the mapping after exchanging the states of physical
// qubits a and b: any logical qubit on a moves to b and vice versa.
func (mp Mapping) ApplySwap(a, b int) Mapping {
	r := mp.Copy()
	for j, i := range r {
		switch i {
		case a:
			r[j] = b
		case b:
			r[j] = a
		}
	}
	return r
}

// ApplyPerm returns π∘σ: the mapping after permuting physical-qubit states
// by π (paper Eq. 3: logical j on physical i moves to physical π(i)).
func (mp Mapping) ApplyPerm(p Perm) Mapping {
	r := make(Mapping, len(mp))
	for j, i := range mp {
		r[j] = p[i]
	}
	return r
}

// String renders the mapping as "q0→p2 q1→p0 …".
func (mp Mapping) String() string {
	s := ""
	for j, i := range mp {
		if j > 0 {
			s += " "
		}
		s += fmt.Sprintf("q%d→p%d", j, i)
	}
	return s
}

// Key packs a mapping into a uint64 usable as a map key (4 bits per
// logical qubit; sufficient for m ≤ 16, n ≤ 16).
func (mp Mapping) Key() uint64 { return mp.key() }

// key packs a mapping into a uint64 for table lookups (4 bits per logical
// qubit; sufficient for m ≤ 16, n ≤ 16).
func (mp Mapping) key() uint64 {
	var k uint64
	for j, i := range mp {
		k |= uint64(i) << (4 * uint(j))
	}
	return k
}

// Space enumerates all injective mappings of n logical qubits into m
// physical qubits and assigns each a dense index, enabling O(1) lookups in
// precomputed distance tables. The total count is m!/(m−n)!.
type Space struct {
	M, N     int
	Mappings []Mapping
	index    map[uint64]int
}

// NewSpace builds the mapping space for n logical and m physical qubits.
// It panics if the space would exceed 10 million mappings (the architectures
// evaluated exhaustively here have m ≤ 5: at most 120 mappings).
func NewSpace(m, n int) *Space {
	if n < 0 || m < n {
		panic(fmt.Sprintf("perm: invalid mapping space m=%d n=%d", m, n))
	}
	count := 1
	for i := 0; i < n; i++ {
		count *= m - i
		if count > 10_000_000 {
			panic(fmt.Sprintf("perm: mapping space m=%d n=%d too large", m, n))
		}
	}
	s := &Space{M: m, N: n, index: make(map[uint64]int, count)}
	cur := make(Mapping, n)
	used := make([]bool, m)
	var rec func(j int)
	rec = func(j int) {
		if j == n {
			s.index[cur.key()] = len(s.Mappings)
			s.Mappings = append(s.Mappings, cur.Copy())
			return
		}
		for i := 0; i < m; i++ {
			if used[i] {
				continue
			}
			used[i] = true
			cur[j] = i
			rec(j + 1)
			used[i] = false
		}
	}
	rec(0)
	return s
}

// Size returns the number of mappings in the space.
func (s *Space) Size() int { return len(s.Mappings) }

// Index returns the dense index of mp, or −1 if mp is not in the space.
func (s *Space) Index(mp Mapping) int {
	if len(mp) != s.N {
		return -1
	}
	idx, ok := s.index[mp.key()]
	if !ok {
		return -1
	}
	return idx
}

// mustIndex is Index for mappings a caller has already validated; a
// mapping outside the space is a bug and panics.
func (s *Space) mustIndex(mp Mapping) int {
	idx := s.Index(mp)
	if idx < 0 {
		panic("perm: mapping not in space")
	}
	return idx
}

// swapIndex returns the index of the mapping obtained from mapping idx by
// exchanging the states of physical qubits a and b (ApplySwap without the
// allocation).
func (s *Space) swapIndex(idx, a, b int) int {
	var k uint64
	for j, i := range s.Mappings[idx] {
		switch i {
		case a:
			i = b
		case b:
			i = a
		}
		k |= uint64(i) << (4 * uint(j))
	}
	return s.index[k]
}

// Mapping returns the mapping with dense index idx.
func (s *Space) Mapping(idx int) Mapping { return s.Mappings[idx] }
