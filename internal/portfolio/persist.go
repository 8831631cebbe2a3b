package portfolio

import (
	"bytes"
	"encoding/gob"
	"fmt"

	"repro/internal/arch"
	"repro/internal/encoder"
	"repro/internal/exact"
	"repro/internal/perm"
)

// SchemaVersion tags every persisted result record. It is baked into the
// store key, so bumping it makes every record written under the old schema
// an instant miss: stale results self-invalidate instead of being decoded
// under wrong assumptions, and compaction eventually drops their bytes.
// Bump whenever the persisted layout, the encoder's solution semantics or
// the solver's cost model changes. v2 added the working architecture's
// cost model to the record (a v1 record decoded under v2 would silently
// drop a non-uniform model, so the old schema is fully invalidated).
const SchemaVersion = "qxr-v2"

// StoreKey derives the persistent-tier key for an instance fingerprint:
// the schema tag joined with the content hash. Records written under a
// different schema version occupy different keys and are never read back.
func StoreKey(fingerprint string) []byte {
	return []byte(SchemaVersion + "/" + fingerprint)
}

// persistedResult is the gob-serializable mirror of the exact.Result
// fields a cache hit needs: the solution itself, the (possibly
// subset-restricted) working architecture it is expressed over, and the
// provenance facts (engine, minimality, |G'|). Work counters (solves,
// encodes, conflicts, probes) are deliberately not persisted — a result
// served from disk did no solving in this process, so its counters are
// zero by construction.
type persistedResult struct {
	Cost          int
	FrameMappings [][]int
	GateFrame     []int
	Perms         [][]int
	PermSwaps     []int
	Switched      []bool
	ArchName      string
	ArchQubits    int
	ArchPairs     []arch.Pair
	SubsetBack    []int
	PermPoints    int
	Engine        string
	Minimal       bool
	// Cost model of the working architecture (absent for the default
	// paper model — HasCostModel false). Persisted so a disk-tier hit
	// reconstructs the exact objective the result was proven under;
	// dropping it would make Result.Ops re-derive swap paths against the
	// wrong weights.
	HasCostModel  bool
	CostName      string
	CostSwapUnit  int
	CostHUnit     int
	CostSwapEdges []perm.Edge
	CostSwapWs    []int
	CostHPairs    []arch.Pair
	CostHWs       []int
}

// EncodeResult serializes a cacheable exact result for the persistent
// tier.
func EncodeResult(r *exact.Result) ([]byte, error) {
	if r == nil || r.Solution == nil || r.WorkArch == nil {
		return nil, fmt.Errorf("portfolio: result not persistable (missing solution or arch)")
	}
	p := persistedResult{
		Cost:          r.Cost,
		FrameMappings: make([][]int, len(r.Solution.FrameMappings)),
		GateFrame:     r.Solution.GateFrame,
		Perms:         make([][]int, len(r.Solution.Perms)),
		PermSwaps:     r.Solution.PermSwaps,
		Switched:      r.Solution.Switched,
		ArchName:      r.WorkArch.Name(),
		ArchQubits:    r.WorkArch.NumQubits(),
		ArchPairs:     r.WorkArch.Pairs(),
		SubsetBack:    r.SubsetBack,
		PermPoints:    r.PermPoints,
		Engine:        r.Engine,
		Minimal:       r.Minimal,
	}
	for i, m := range r.Solution.FrameMappings {
		p.FrameMappings[i] = []int(m)
	}
	for i, pm := range r.Solution.Perms {
		p.Perms[i] = []int(pm)
	}
	if cm := r.WorkArch.Cost(); !cm.IsPaper() {
		p.HasCostModel = true
		p.CostName = cm.Name()
		p.CostSwapUnit = cm.SwapUnit()
		p.CostHUnit = cm.HUnit()
		p.CostSwapEdges, p.CostSwapWs = cm.SwapOverrides()
		p.CostHPairs, p.CostHWs = cm.HOverrides()
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(p); err != nil {
		return nil, fmt.Errorf("portfolio: encoding result: %w", err)
	}
	return buf.Bytes(), nil
}

// DecodeResult deserializes a persistent-tier record back into an
// exact.Result, rebuilding the working architecture from its stored
// coupling pairs. The decoded result carries zero work counters: no
// solving happened in this process. Any structural violation — a decode
// error, an invalid architecture, mismatched slice lengths, a frame
// mapping that is not an injective placement on the architecture —
// returns an error; callers treat it as a cache miss, never as an answer.
func DecodeResult(data []byte) (*exact.Result, error) {
	var p persistedResult
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&p); err != nil {
		return nil, fmt.Errorf("portfolio: decoding result: %w", err)
	}
	a, err := arch.New(p.ArchName, p.ArchQubits, p.ArchPairs)
	if err != nil {
		return nil, fmt.Errorf("portfolio: decoding result arch: %w", err)
	}
	if p.HasCostModel {
		if len(p.CostSwapEdges) != len(p.CostSwapWs) || len(p.CostHPairs) != len(p.CostHWs) {
			return nil, fmt.Errorf("portfolio: decoded result cost-model override mismatch")
		}
		cm, err := arch.NewCostModel(p.CostName, p.CostSwapUnit, p.CostHUnit)
		if err != nil {
			return nil, fmt.Errorf("portfolio: decoding result cost model: %w", err)
		}
		for i, e := range p.CostSwapEdges {
			if err := cm.SetSwapWeight(e.A, e.B, p.CostSwapWs[i]); err != nil {
				return nil, fmt.Errorf("portfolio: decoding result cost model: %w", err)
			}
		}
		for i, pr := range p.CostHPairs {
			if err := cm.SetHWeight(pr.Control, pr.Target, p.CostHWs[i]); err != nil {
				return nil, fmt.Errorf("portfolio: decoding result cost model: %w", err)
			}
		}
		if a, err = a.WithCostModel(cm); err != nil {
			return nil, fmt.Errorf("portfolio: decoding result cost model: %w", err)
		}
	}
	if len(p.FrameMappings) == 0 {
		return nil, fmt.Errorf("portfolio: decoded result has no frames")
	}
	// Perms is optional (the DP engine never materializes it — swap paths
	// are recovered from the frame mappings), but when present it must
	// align with the transitions, and PermSwaps always must.
	if len(p.PermSwaps) != len(p.FrameMappings)-1 || (len(p.Perms) != 0 && len(p.Perms) != len(p.PermSwaps)) {
		return nil, fmt.Errorf("portfolio: decoded result frame/perm mismatch (%d frames, %d perms, %d swap counts)",
			len(p.FrameMappings), len(p.Perms), len(p.PermSwaps))
	}
	if len(p.GateFrame) != len(p.Switched) {
		return nil, fmt.Errorf("portfolio: decoded result gate/switch mismatch (%d vs %d)",
			len(p.GateFrame), len(p.Switched))
	}
	if p.SubsetBack != nil && len(p.SubsetBack) != p.ArchQubits {
		return nil, fmt.Errorf("portfolio: decoded result subset-back length %d, arch has %d qubits",
			len(p.SubsetBack), p.ArchQubits)
	}
	sol := &encoder.Solution{
		Cost:          p.Cost,
		FrameMappings: make([]perm.Mapping, len(p.FrameMappings)),
		GateFrame:     p.GateFrame,
		Perms:         make([]perm.Perm, len(p.Perms)),
		PermSwaps:     p.PermSwaps,
		Switched:      p.Switched,
	}
	for i, m := range p.FrameMappings {
		if len(m) == 0 {
			return nil, fmt.Errorf("portfolio: decoded result frame %d is empty", i)
		}
		mp := perm.Mapping(m)
		if len(mp) != len(p.FrameMappings[0]) || !mp.Valid(p.ArchQubits) {
			return nil, fmt.Errorf("portfolio: decoded result frame %d mapping %v is not a placement of %d qubits on %d",
				i, m, len(p.FrameMappings[0]), p.ArchQubits)
		}
		sol.FrameMappings[i] = mp
	}
	for i, pm := range p.Perms {
		sol.Perms[i] = perm.Perm(pm)
	}
	return &exact.Result{
		Cost:       p.Cost,
		Solution:   sol,
		WorkArch:   a,
		SubsetBack: p.SubsetBack,
		PermPoints: p.PermPoints,
		Engine:     p.Engine,
		Minimal:    p.Minimal,
	}, nil
}
