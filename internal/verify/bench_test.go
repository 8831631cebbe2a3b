package verify

import (
	"testing"

	"repro/internal/revlib"
)

// BenchmarkEquivalent times the full unitary check of a 5-qubit Table-1
// circuit (4gt11_84) mapped onto QX4: all 32 basis states of the original
// against the mapped circuit on the device's 5 qubits.
func BenchmarkEquivalent(b *testing.B) {
	bm, err := revlib.SuiteByName("4gt11_84")
	if err != nil {
		b.Fatal(err)
	}
	mapped, initial, final := mapCircuit(b, bm.Circuit)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := Equivalent(bm.Circuit, mapped, 5, initial, final); err != nil {
			b.Fatal(err)
		}
	}
}
