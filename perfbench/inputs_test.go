package main

import (
	"bytes"
	"testing"

	qxmap "repro"
	"repro/internal/revlib"
)

func qasm(t *testing.T, c *qxmap.Circuit) string {
	t.Helper()
	s, err := qxmap.WriteQASM(c)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestInputsFollowTheSeed checks that every workload makes the same inputs
// from the same seed and different ones from another seed.
func TestInputsFollowTheSeed(t *testing.T) {
	for _, spec := range []*libSpec{exactSpec, subsetsSpec, heuristicSpec} {
		a, b, other := spec.inputs(7), spec.inputs(7), spec.inputs(8)
		if len(a) == 0 || len(a) != len(b) || len(a) != len(other) {
			t.Fatalf("%s: input counts %d, %d, %d", spec.name, len(a), len(b), len(other))
		}
		ids := map[string]bool{}
		differ := 0
		for i := range a {
			if a[i].ID != b[i].ID || qasm(t, a[i].Circuit) != qasm(t, b[i].Circuit) {
				t.Errorf("%s: input %d differs between two runs of seed 7", spec.name, i)
			}
			if qasm(t, a[i].Circuit) != qasm(t, other[i].Circuit) {
				differ++
			}
			if ids[a[i].ID] {
				t.Errorf("%s: duplicate input ID %s", spec.name, a[i].ID)
			}
			ids[a[i].ID] = true
		}
		if differ == 0 {
			t.Errorf("%s: seeds 7 and 8 give the same circuits", spec.name)
		}
	}
}

// TestSeedZeroIsTableOne checks that seed 0 maps the suite's own circuits
// first and that regenerated rows keep the row's qubit count and profile.
func TestSeedZeroIsTableOne(t *testing.T) {
	suite := map[string]revlib.Benchmark{}
	for _, b := range revlib.Suite() {
		suite[b.Name] = b
	}
	for _, seed := range []int64{0, 3} {
		for i, in := range exactSpec.inputs(seed) {
			b := suite[in.Row]
			st := in.Circuit.Statistics()
			if in.Circuit.NumQubits() != b.N || st.CNOT != b.CNOTs || st.SingleQubit != b.SingleQubit {
				t.Errorf("seed %d %s: %d qubits, %d CNOTs, %d 1q; row has %d, %d, %d",
					seed, in.ID, in.Circuit.NumQubits(), st.CNOT, st.SingleQubit, b.N, b.CNOTs, b.SingleQubit)
			}
			if seed == 0 && i < 7 && qasm(t, in.Circuit) != qasm(t, b.Circuit) {
				t.Errorf("seed 0 %s is not the Table-1 circuit", in.ID)
			}
		}
	}
}

func TestServiceInputsFollowTheSeed(t *testing.T) {
	hotA, a, err := serviceInputs(5, 300)
	if err != nil {
		t.Fatal(err)
	}
	hotB, b, _ := serviceInputs(5, 300)
	_, c, _ := serviceInputs(6, 300)
	if len(hotA) != svcHotSize || len(hotB) != svcHotSize {
		t.Fatalf("hot set sizes %d, %d", len(hotA), len(hotB))
	}
	kinds := map[string]int{}
	same := 0
	for i := range a {
		if !bytes.Equal(a[i].body, b[i].body) {
			t.Errorf("request %d differs between two runs of seed 5", i)
		}
		if bytes.Equal(a[i].body, c[i].body) {
			same++
		}
		kinds[a[i].kind]++
	}
	if same == len(a) {
		t.Error("seeds 5 and 6 give the same request stream")
	}
	// The mix is about 60/25/15; allow for sampling.
	if kinds[kindHot] < 150 || kinds[kindDP] < 50 || kinds[kindSabre] < 25 {
		t.Errorf("request mix %v is far from 60/25/15", kinds)
	}
	if svcHotSize <= svcCache {
		t.Errorf("hot set (%d) must exceed the cache (%d) so hits reach the disk tier", svcHotSize, svcCache)
	}
}
