package sat

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/faultinject"
)

// inboxCap bounds each worker's import channel. Exports are non-blocking:
// when a peer's inbox is full the clause is simply not delivered there —
// sharing is an optimization, never a synchronization point.
const inboxCap = 256

// Pool is a clause-sharing thread portfolio over one incremental instance.
// Worker 0 is the master solver itself (the caller's options, the
// deterministic anchor); workers 1…N−1 are clones diversified by restart
// schedule, polarity mode, and random seed. During SolveContext every
// worker searches concurrently, exporting low-LBD learnt clauses to its
// peers' inboxes and importing at restart boundaries; the first definitive
// answer cancels the rest.
//
// The pool presents the master's query surface (Value, UnsatCore, …): after
// a portfolio solve the winning worker's model or core is installed into
// the master, so existing decoding paths keep reading one solver.
//
// Soundness: learnt clauses are consequences of the problem clauses alone —
// assumptions enter the search as scoped decisions, never as clauses — so a
// clause learnt by any worker under any assumption set is importable by
// every peer. Determinism caveat: the SAT/UNSAT status is identical across
// schedules, but with N > 1 the surviving model (or minimized core) depends
// on which worker answers first.
type Pool struct {
	master  *Solver
	opts    Options
	threads int

	workers []*Solver    // workers[0] == master; nil until first solve
	inboxes []chan []Lit // one per worker

	// Incremental sync cursors per worker: how much of the master's
	// problem-clause list and level-0 trail each clone has replayed.
	syncedClauses []int
	syncedUnits   []int

	// dead marks clones that panicked mid-solve: their internal state is
	// untrusted, so they are excluded from every future solve and sync and
	// the portfolio continues on the survivors. dead[0] is never set — a
	// master panic poisons the whole pool and is repropagated instead.
	dead []bool
	// panicked counts worker panics contained over the pool's lifetime.
	panicked atomic.Uint64
}

// NewPool wraps master in a portfolio of threads workers (threads ≥ 1;
// values ≤ 1 degrade to a pass-through around the master). The master must
// not be solved directly while the pool owns it.
func NewPool(master *Solver, threads int) *Pool {
	if threads < 1 {
		threads = 1
	}
	return &Pool{master: master, opts: master.opts, threads: threads}
}

// Threads returns the configured worker count.
func (p *Pool) Threads() int { return p.threads }

// diversify derives worker i's options from the master's. Worker 0 keeps
// the caller's configuration verbatim.
func diversify(base Options, i int) Options {
	o := base
	o.Seed = base.Seed*1099511628211 + int64(i)
	switch i % 4 {
	case 1:
		o.Restart = RestartGeometric
		o.RestartBase = 100
		o.RestartFactor = 1.5
		o.RandomVarFreq = 0.02
	case 2:
		o.Restart = RestartLuby
		o.RestartBase = 50
		o.Polarity = PolarityTrue
	case 3:
		o.Restart = RestartGeometric
		o.RestartBase = 500
		o.RestartFactor = 2
		o.Polarity = PolarityRandom
	default: // i ≥ 4, i ≡ 0 (mod 4)
		o.Restart = RestartLuby
		o.RestartBase = 200
		o.Polarity = PolarityFalse
		o.RandomVarFreq = 0.05
	}
	return o
}

// start lazily clones the workers and wires the sharing channels. Called at
// the first portfolio solve so the clones inherit the fully built encoding
// (and any learnt clauses the master accumulated before the pool took over).
func (p *Pool) start() {
	if p.workers != nil {
		return
	}
	p.workers = make([]*Solver, p.threads)
	p.inboxes = make([]chan []Lit, p.threads)
	p.dead = make([]bool, p.threads)
	p.syncedClauses = make([]int, p.threads)
	p.syncedUnits = make([]int, p.threads)
	p.workers[0] = p.master
	for i := 1; i < p.threads; i++ {
		p.workers[i] = p.master.clone(diversify(p.opts, i))
		p.syncedClauses[i] = len(p.master.clauses)
		p.syncedUnits[i] = p.master.rootUnits()
	}
	for i := range p.workers {
		p.inboxes[i] = make(chan []Lit, inboxCap)
		w, inbox := p.workers[i], p.inboxes[i]
		w.export = p.exportFrom(i)
		w.importLearnts = func() [][]Lit {
			var out [][]Lit
			for {
				select {
				case lits := <-inbox:
					out = append(out, lits)
				default:
					return out
				}
			}
		}
	}
}

// exportFrom builds worker i's export hook: fan the clause out to every
// peer inbox without blocking, reporting whether any peer accepted it. The
// exported slice is a fresh copy owned jointly by the receivers, which only
// read it.
func (p *Pool) exportFrom(i int) func([]Lit, int) bool {
	return func(lits []Lit, lbd int) bool {
		accepted := false
		for j, ch := range p.inboxes {
			if j == i {
				continue
			}
			select {
			case ch <- lits:
				accepted = true
			default:
			}
		}
		return accepted
	}
}

// rootUnits returns the number of level-0 trail assignments.
func (s *Solver) rootUnits() int {
	if len(s.trailLim) > 0 {
		return s.trailLim[0]
	}
	return len(s.trail)
}

// sync replays the master's growth since the last solve — new variables,
// new problem clauses, new root-level units — into every clone. The
// incremental encoder extends the master between probes (CostAtMostLit
// lazily materializes each new bound), so this runs before every solve.
func (p *Pool) sync() {
	m := p.master
	for i := 1; i < len(p.workers); i++ {
		if p.dead[i] {
			continue
		}
		w := p.workers[i]
		for w.NumVars() < m.NumVars() {
			w.NewVar()
		}
		if m.unsat {
			w.unsat = true
			continue
		}
		for _, c := range m.clauses[p.syncedClauses[i]:] {
			w.AddClause(m.ca.lits(c)...)
		}
		p.syncedClauses[i] = len(m.clauses)
		units := m.rootUnits()
		for _, l := range m.trail[p.syncedUnits[i]:units] {
			w.AddClause(l)
		}
		p.syncedUnits[i] = units
	}
}

// Solve is SolveContext with a background context.
func (p *Pool) Solve(assumptions ...Lit) Status {
	return p.SolveContext(context.Background(), assumptions...)
}

// SolveContext runs the portfolio on the current instance under the given
// assumptions. The first worker to reach Sat or Unsat cancels the rest; its
// model (or minimized assumption core) is installed into the master. If
// every worker exhausts its conflict budget or the context expires, the
// result is Unknown.
func (p *Pool) SolveContext(ctx context.Context, assumptions ...Lit) Status {
	if p.threads <= 1 || p.master.unsat {
		return p.master.SolveContext(ctx, assumptions...)
	}
	p.start()
	p.sync()

	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	statuses := make([]Status, len(p.workers))
	panics := make([]any, len(p.workers))
	var wg sync.WaitGroup
	for i := range p.workers {
		if p.dead[i] {
			continue // a clone that panicked earlier stays benched
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// A panicking worker must not kill the process: its verdict
			// stays Unknown and the peers keep searching — a portfolio
			// member crashing is a narrower portfolio, not a failed solve.
			defer func() {
				if r := recover(); r != nil {
					panics[i] = r
					p.panicked.Add(1)
				}
			}()
			_ = faultinject.Hit(fmt.Sprintf("sat.pool.worker.%d", i))
			st := p.workers[i].SolveContext(cctx, assumptions...)
			statuses[i] = st
			if st == Sat || st == Unsat {
				cancel() // first definitive answer wins; peers stop at their next poll
			}
		}(i)
	}
	wg.Wait()
	for i := 1; i < len(p.workers); i++ {
		if panics[i] != nil {
			p.dead[i] = true
		}
	}
	if panics[0] != nil {
		// The master's trail/arena cannot be trusted after a mid-search
		// panic, and every query surface reads through it. Repropagate so
		// the caller's recover boundary (the exact layer) turns the whole
		// solve into an error instead of silently reusing a corrupt solver.
		panic(panics[0])
	}

	winner := -1
	for i, st := range statuses {
		if st == Sat || st == Unsat {
			winner = i
			break // lowest definitive index: a stable tie-break across runs
		}
	}
	if winner < 0 {
		return Unknown
	}
	if winner > 0 {
		p.adopt(p.workers[winner], statuses[winner])
	}
	return statuses[winner]
}

// adopt installs a non-master winner's verdict into the master so the
// pool's query surface (backed by the master) reflects the answer.
func (p *Pool) adopt(w *Solver, st Status) {
	m := p.master
	m.unsatAssumptions = w.unsatAssumptions
	m.failedAssumption = w.failedAssumption
	m.unsatCore = append([]Lit(nil), w.unsatCore...)
	if len(w.unsatCore) == 0 {
		m.unsatCore = nil
	}
	switch st {
	case Sat:
		if cap(m.model) < len(w.model) {
			m.model = make([]lbool, len(w.model))
		}
		m.model = m.model[:len(w.model)]
		copy(m.model, w.model)
	case Unsat:
		if !w.unsatAssumptions {
			m.unsat = true
		}
	}
}

// Panics reports how many worker panics the pool has contained over its
// lifetime (including a master panic, which is repropagated after counting).
func (p *Pool) Panics() uint64 { return p.panicked.Load() }

// DeadWorkers reports how many clones have been benched after panicking
// mid-solve; the portfolio keeps answering on the survivors.
func (p *Pool) DeadWorkers() int {
	n := 0
	for _, d := range p.dead {
		if d {
			n++
		}
	}
	return n
}

// Value returns the master's model value for v (the winning worker's model
// is installed there after each Sat).
func (p *Pool) Value(v Var) bool { return p.master.Value(v) }

// UnsatFromAssumptions reports whether the last solve's Unsat was caused by
// the assumptions; see Solver.UnsatFromAssumptions.
func (p *Pool) UnsatFromAssumptions() bool { return p.master.UnsatFromAssumptions() }

// FailedAssumption returns the assumption whose falsification caused the
// last Unsat; see Solver.FailedAssumption.
func (p *Pool) FailedAssumption() Lit { return p.master.FailedAssumption() }

// UnsatCore returns the minimized assumption core of the last Unsat; see
// Solver.UnsatCore.
func (p *Pool) UnsatCore() []Lit { return p.master.UnsatCore() }

// Snapshot aggregates counters across every worker (the master included).
// Call only between solves; workers are quiescent then.
func (p *Pool) Snapshot() Stats {
	if p.workers == nil {
		return p.master.Snapshot()
	}
	var t Stats
	for _, w := range p.workers {
		s := w.Snapshot()
		t.Decisions += s.Decisions
		t.Propagations += s.Propagations
		t.Conflicts += s.Conflicts
		t.Restarts += s.Restarts
		t.Learnt += s.Learnt
		t.Removed += s.Removed
		t.Subsumed += s.Subsumed
		t.ArenaGCs += s.ArenaGCs
		t.SharedExports += s.SharedExports
		t.SharedImports += s.SharedImports
		for i := range s.LBDHist {
			t.LBDHist[i] += s.LBDHist[i]
		}
	}
	return t
}

// clone deep-copies the solver's state — arena, clause lists, watch lists,
// assignment trail, activities — into a fresh solver configured by opts.
// The receiver must be at decision level 0 (i.e. outside Solve).
func (s *Solver) clone(opts Options) *Solver {
	n := New(opts)
	n.ca.data = append([]Lit(nil), s.ca.data...)
	n.ca.wasted = s.ca.wasted
	n.clauses = append([]ClauseRef(nil), s.clauses...)
	n.learnts = append([]ClauseRef(nil), s.learnts...)
	n.watches = make([][]watcher, len(s.watches))
	for i, ws := range s.watches {
		n.watches[i] = append([]watcher(nil), ws...)
	}
	n.vals = append([]lbool(nil), s.vals...)
	n.polarity = append([]bool(nil), s.polarity...)
	n.reason = append([]ClauseRef(nil), s.reason...)
	n.level = append([]int32(nil), s.level...)
	n.trail = append([]Lit(nil), s.trail...)
	n.qhead = s.qhead
	n.activity = append([]float64(nil), s.activity...)
	n.seen = make([]byte, len(s.seen))
	n.varInc, n.claInc = s.varInc, s.claInc
	n.unsat = s.unsat
	for v := 0; v < n.NumVars(); v++ {
		if n.vals[Var(v).Pos()] == lUndef {
			n.order.push(Var(v))
		}
	}
	return n
}
