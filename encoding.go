package qxmap

// Stable JSON wire encodings of Result, Stats and the MapBatch report.
// These types are the single source of truth for how mapping outcomes
// cross process boundaries: cmd/qxmap -json prints them, cmd/qxmapd
// serves them, and a golden-file test pins the field set so the wire
// format only changes deliberately. Durations are encoded as integer
// nanoseconds (the _ns suffix), layouts as plain physical-qubit arrays,
// and the mapped circuit as an OpenQASM 2.0 string.

// StatsJSON is the wire encoding of Stats.
type StatsJSON struct {
	SkeletonNS    int64  `json:"skeleton_ns"`
	SolveNS       int64  `json:"solve_ns"`
	MaterializeNS int64  `json:"materialize_ns"`
	VerifyNS      int64  `json:"verify_ns"`
	OptimizeNS    int64  `json:"optimize_ns"`
	Solver        string `json:"solver"`
	Engine        string `json:"engine"`
	CacheHit      bool   `json:"cache_hit"`
	// CacheTier is "memory" or "disk" on a cache hit, "" on a solve.
	CacheTier string `json:"cache_tier"`
	// SolveCounters flattens in place: sat_solves … shared_clauses follow
	// cache_tier on the wire.
	SolveCounters
	// Degradation and BoundGap report graceful degradation
	// (Options.Ladder): the rung that produced the plan ("anytime" or
	// "heuristic") and, for anytime plans, the bracket on the optimum
	// (it lies in [cost−bound_gap, cost]). Omitted on full solves, so
	// happy-path encodings are byte-identical to earlier versions.
	Degradation string `json:"degradation,omitempty"`
	BoundGap    int    `json:"bound_gap,omitempty"`
}

// JSON returns the stable wire encoding of the stats.
func (s Stats) JSON() StatsJSON {
	return StatsJSON{
		SkeletonNS:    s.SkeletonTime.Nanoseconds(),
		SolveNS:       s.SolveTime.Nanoseconds(),
		MaterializeNS: s.MaterializeTime.Nanoseconds(),
		VerifyNS:      s.VerifyTime.Nanoseconds(),
		OptimizeNS:    s.OptimizeTime.Nanoseconds(),
		Solver:        s.Solver,
		Engine:        s.Engine,
		CacheHit:      s.CacheHit,
		CacheTier:     s.CacheTier,
		SolveCounters: s.SolveCounters,
		Degradation:   s.Degradation,
		BoundGap:      s.BoundGap,
	}
}

// CostModelJSON is the wire encoding of a non-default cost model: the
// uniform units plus the number of per-edge overrides each kind carries.
// Results solved under the paper's 7/4 objective omit the block entirely,
// so the wire format of default runs is byte-identical to earlier
// versions.
type CostModelJSON struct {
	Name          string `json:"name"`
	SwapUnit      int    `json:"swap_unit"`
	HUnit         int    `json:"h_unit"`
	SwapOverrides int    `json:"swap_overrides,omitempty"`
	HOverrides    int    `json:"h_overrides,omitempty"`
}

// ResultJSON is the wire encoding of a Result.
type ResultJSON struct {
	Method     string `json:"method"`
	Engine     string `json:"engine"`
	Cost       int    `json:"cost"`
	Swaps      int    `json:"swaps"`
	Switches   int    `json:"switches"`
	PermPoints int    `json:"perm_points"`
	Minimal    bool   `json:"minimal"`
	// Degradation mirrors Stats.Degradation at the top level so clients
	// checking "was this plan degraded?" need not dig into stats; omitted
	// (with minimal reporting the real guarantee) on full solves.
	Degradation        string `json:"degradation,omitempty"`
	CacheHit           bool   `json:"cache_hit"`
	CacheTier          string `json:"cache_tier"`
	Gates              int    `json:"gates"`
	Depth              int    `json:"depth"`
	GatesOptimizedAway int    `json:"gates_optimized_away"`
	InitialLayout      []int  `json:"initial_layout"`
	FinalLayout        []int  `json:"final_layout"`
	RuntimeNS          int64  `json:"runtime_ns"`
	QASM               string `json:"qasm,omitempty"`
	// CostModel is present only when the run optimized a non-default
	// weighted objective (Options.CostModel or a model on the
	// architecture).
	CostModel *CostModelJSON `json:"cost_model,omitempty"`
	Stats     StatsJSON      `json:"stats"`
}

// JSON returns the stable wire encoding of the result. With includeQASM,
// the mapped circuit is rendered as an OpenQASM 2.0 string into the qasm
// field (the only step that can fail); without it the field is omitted.
func (r *Result) JSON(includeQASM bool) (*ResultJSON, error) {
	j := &ResultJSON{
		Method:             r.Method.String(),
		Engine:             r.Engine.String(),
		Cost:               r.Cost,
		Swaps:              r.Swaps,
		Switches:           r.Switches,
		PermPoints:         r.PermPoints,
		Minimal:            r.Minimal,
		Degradation:        r.Stats.Degradation,
		CacheHit:           r.CacheHit,
		CacheTier:          r.CacheTier,
		GatesOptimizedAway: r.GatesOptimizedAway,
		InitialLayout:      []int(r.InitialLayout),
		FinalLayout:        []int(r.FinalLayout),
		RuntimeNS:          r.Runtime.Nanoseconds(),
		Stats:              r.Stats.JSON(),
	}
	if cm := r.CostModel; cm != nil {
		se, _ := cm.SwapOverrides()
		he, _ := cm.HOverrides()
		j.CostModel = &CostModelJSON{
			Name:          cm.Name(),
			SwapUnit:      cm.SwapUnit(),
			HUnit:         cm.HUnit(),
			SwapOverrides: len(se),
			HOverrides:    len(he),
		}
	}
	if r.Mapped != nil {
		j.Gates = r.Mapped.Len()
		j.Depth = r.Mapped.Depth()
		if includeQASM {
			qasm, err := WriteQASM(r.Mapped)
			if err != nil {
				return nil, err
			}
			j.QASM = qasm
		}
	}
	return j, nil
}

// BatchJobJSON is the wire encoding of one BatchResult: exactly one of
// Result and Error is set.
type BatchJobJSON struct {
	Index  int         `json:"index"`
	Name   string      `json:"name,omitempty"`
	Result *ResultJSON `json:"result,omitempty"`
	Error  string      `json:"error,omitempty"`
}

// BatchReportJSON is the wire encoding of a whole MapBatch outcome.
type BatchReportJSON struct {
	Jobs      []BatchJobJSON `json:"jobs"`
	Succeeded int            `json:"succeeded"`
	Failed    int            `json:"failed"`
	// TotalCost sums Cost over the succeeded jobs.
	TotalCost int `json:"total_cost"`
}

// BatchReport converts MapBatch results into the stable wire encoding,
// preserving input order and aggregating success/failure counts and the
// total added cost.
func BatchReport(results []BatchResult, includeQASM bool) (*BatchReportJSON, error) {
	report := &BatchReportJSON{Jobs: make([]BatchJobJSON, len(results))}
	for i, br := range results {
		j := BatchJobJSON{Index: br.Index, Name: br.Job.Name}
		if br.Err != nil {
			j.Error = br.Err.Error()
			report.Failed++
		} else {
			rj, err := br.Result.JSON(includeQASM)
			if err != nil {
				return nil, err
			}
			j.Result = rj
			report.Succeeded++
			report.TotalCost += br.Result.Cost
		}
		report.Jobs[i] = j
	}
	return report, nil
}
