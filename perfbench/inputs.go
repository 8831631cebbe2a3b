package main

import (
	"fmt"

	qxmap "repro"
	"repro/internal/revlib"
)

// input is one circuit a workload maps. ID is unique within a workload and
// names the circuit in traces, references and error messages.
type input struct {
	ID      string
	Row     string
	Circuit *qxmap.Circuit
}

// rowCircuit returns Table-1 row b for seed and variant. Seed 0, variant 0
// is the suite's own circuit; anything else regenerates the row with
// revlib.RandomCircuit under the key "<row>#<seed>" (".<variant>" appended
// for variants past the first), which keeps the row's qubit count and gate
// profile.
func rowCircuit(b revlib.Benchmark, seed int64, variant int) (string, *qxmap.Circuit) {
	key := fmt.Sprintf("%s#%d", b.Name, seed)
	if variant > 0 {
		key += fmt.Sprintf(".%d", variant)
	}
	if seed == 0 && variant == 0 {
		return key, b.Circuit
	}
	return key, revlib.RandomCircuit(key, b.N, b.SingleQubit, b.CNOTs)
}

// tableInputs returns variants circuits for every Table-1 row that keep
// accepts, variant-major (every row once before any row twice).
func tableInputs(seed int64, variants int, keep func(revlib.Benchmark) bool) []input {
	var rows []revlib.Benchmark
	for _, b := range revlib.Suite() {
		if keep(b) {
			rows = append(rows, b)
		}
	}
	var out []input
	for v := 0; v < variants; v++ {
		for _, b := range rows {
			id, c := rowCircuit(b, seed, v)
			out = append(out, input{ID: id, Row: b.Name, Circuit: c})
		}
	}
	return out
}

// randomInputs returns perSize seeded random circuits for each qubit count in
// sizes, with oneQ·n single-qubit gates and cx·n CNOTs each.
func randomInputs(prefix string, seed int64, sizes []int, perSize, oneQ, cx int) []input {
	var out []input
	for _, n := range sizes {
		for k := 0; k < perSize; k++ {
			id := fmt.Sprintf("%s%d.%d#%d", prefix, n, k, seed)
			out = append(out, input{ID: id, Row: fmt.Sprintf("%s%d", prefix, n), Circuit: revlib.RandomCircuit(id, n, oneQ*n, cx*n)})
		}
	}
	return out
}
