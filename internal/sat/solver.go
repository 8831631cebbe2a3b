package sat

import (
	"context"
	"slices"
	"sort"
)

// watcher pairs a watching clause with a blocker literal: if the blocker is
// already true the clause is satisfied and need not be inspected. A ref
// tagged with binFlag marks a binary clause, whose blocker is always its
// other literal, so propagation settles it without reading the arena.
type watcher struct {
	ref     ClauseRef
	blocker Lit
}

// Stats is a value snapshot of solver counters, obtained from
// Solver.Snapshot. Counters accumulate across Solve calls.
type Stats struct {
	Decisions    int64
	Propagations int64
	Conflicts    int64
	Restarts     int64
	Learnt       int64
	Removed      int64
	// Subsumed counts learnt clauses deleted by on-the-fly self-subsumption
	// during conflict analysis.
	Subsumed int64
	// ArenaGCs counts compacting garbage collections of the clause arena.
	ArenaGCs int64
	// SharedExports / SharedImports count clauses exchanged with portfolio
	// peers (exports actually accepted by the channel, imports installed).
	SharedExports int64
	SharedImports int64
	// LBDHist buckets learnt clauses by LBD at learn time:
	// 1, 2, 3, 4–5, 6–9, 10+.
	LBDHist [6]int64
}

// lbdBucket maps an LBD value to its LBDHist index.
func lbdBucket(lbd int) int {
	switch {
	case lbd <= 1:
		return 0
	case lbd == 2:
		return 1
	case lbd == 3:
		return 2
	case lbd <= 5:
		return 3
	case lbd <= 9:
		return 4
	default:
		return 5
	}
}

// Solver is an incremental CDCL SAT solver. Create with New (or NewSolver
// for defaults), allocate variables with NewVar, add clauses with AddClause,
// and call Solve (optionally under assumptions). After Sat, query the model
// with Value.
//
// Clauses live in a flat int32 arena (see arena.go) and are addressed by
// ClauseRef; watcher lists and reason slots hold refs, and reduceDB
// compacts the slab once enough of it is tombstoned.
type Solver struct {
	opts Options
	rng  xorshift64

	ca      arena
	clauses []ClauseRef // problem clauses
	learnts []ClauseRef
	watches [][]watcher

	vals     []lbool // value per literal, indexed by Lit
	polarity []bool  // saved phase per variable
	reason   []ClauseRef
	level    []int32
	trail    []Lit
	trailLim []int
	qhead    int

	activity []float64
	varInc   float64
	claInc   float64
	order    *varHeap
	seen     []byte

	// levelMark/lbdStamp implement O(size) LBD computation: a level counts
	// once per stamp epoch.
	levelMark []int64
	lbdStamp  int64

	// Scratch buffers reused across calls so that conflict analysis and
	// clause addition do not allocate: the learnt clause analyze returns
	// (valid until the next conflict), the seen flags it must clear, and
	// AddClause's normalized copy of its input.
	learntBuf []Lit
	toClear   []Lit
	addBuf    []Lit

	unsat bool    // empty clause derived at level 0
	model []lbool // last satisfying assignment

	// unsatAssumptions / failedAssumption record why the last Solve
	// returned Unsat: a falsified assumption literal (and which one), or
	// genuine unsatisfiability of the clause set itself. unsatCore is the
	// minimized subset of the assumptions that final-conflict analysis
	// proved jointly inconsistent with the clause set.
	unsatAssumptions bool
	failedAssumption Lit
	unsatCore        []Lit

	// Portfolio hooks (set by Pool, nil for a standalone solver): export
	// offers a freshly learnt clause to peers and reports whether it was
	// accepted; importLearnts returns peer clauses to install, called only
	// at restart boundaries (decision level 0).
	export        func(lits []Lit, lbd int) bool
	importLearnts func() [][]Lit

	stats Stats
}

// New returns an empty solver configured by opts (zero fields take the
// documented defaults).
func New(opts Options) *Solver {
	o := opts.withDefaults()
	s := &Solver{opts: o, rng: newRng(o.Seed), varInc: 1, claInc: 1}
	s.order = newVarHeap(&s.activity)
	return s
}

// NewSolver returns an empty solver with default options; it is equivalent
// to New(Options{}).
func NewSolver() *Solver { return New(Options{}) }

// Snapshot returns a copy of the solver's counters. The copy is decoupled:
// later solving does not mutate it.
func (s *Solver) Snapshot() Stats { return s.stats }

// NumVars returns the number of allocated variables.
func (s *Solver) NumVars() int { return len(s.level) }

// NumClauses returns the number of problem (non-learnt) clauses.
func (s *Solver) NumClauses() int { return len(s.clauses) }

// NewVar allocates a fresh variable.
func (s *Solver) NewVar() Var {
	v := Var(len(s.level))
	s.vals = append(s.vals, lUndef, lUndef) // v.Pos(), v.Neg()
	s.polarity = append(s.polarity, false)
	s.reason = append(s.reason, NilRef)
	s.level = append(s.level, 0)
	s.activity = append(s.activity, 0)
	s.seen = append(s.seen, 0)
	s.watches = append(s.watches, nil, nil) // one list per literal
	s.order.push(v)
	return v
}

func (s *Solver) value(l Lit) lbool { return s.vals[l] }

// Value returns the model value of v after a Sat result. Variables created
// after the last Solve report false.
func (s *Solver) Value(v Var) bool {
	if int(v) >= len(s.model) {
		return false
	}
	return s.model[v] == lTrue
}

func (s *Solver) decisionLevel() int { return len(s.trailLim) }

// AddClause adds a clause over the given literals. It returns false if the
// solver is already in an unsatisfiable state at level 0 (adding is then a
// no-op). Tautologies are silently dropped; duplicate literals are merged;
// literals already false at level 0 are removed.
func (s *Solver) AddClause(lits ...Lit) bool {
	if s.unsat {
		return false
	}
	s.cancelUntil(0)
	// Normalize: sort, dedupe, drop false literals, detect tautology and
	// satisfied clauses.
	ls := append(s.addBuf[:0], lits...)
	slices.Sort(ls)
	s.addBuf = ls
	out := ls[:0]
	var prev Lit = LitUndef
	for _, l := range ls {
		if l.Var() < 0 || int(l.Var()) >= s.NumVars() {
			panic("sat: literal references unallocated variable")
		}
		if l == prev {
			continue
		}
		if l == prev.Not() && prev != LitUndef {
			return true // tautology
		}
		switch s.value(l) {
		case lTrue:
			return true // satisfied at level 0
		case lFalse:
			continue // drop
		}
		out = append(out, l)
		prev = l
	}
	switch len(out) {
	case 0:
		s.unsat = true
		return false
	case 1:
		s.enqueue(out[0], NilRef)
		if s.propagate() != NilRef {
			s.unsat = true
			return false
		}
		return true
	}
	c := s.ca.alloc(out, false)
	s.clauses = append(s.clauses, c)
	s.watchClause(c)
	return true
}

func (s *Solver) watchClause(c ClauseRef) {
	ls := s.ca.lits(c)
	ref := c
	if len(ls) == 2 {
		ref |= binFlag
	}
	s.watches[ls[0].Not()] = append(s.watches[ls[0].Not()], watcher{ref, ls[1]})
	s.watches[ls[1].Not()] = append(s.watches[ls[1].Not()], watcher{ref, ls[0]})
}

func (s *Solver) detachClause(c ClauseRef) {
	ls := s.ca.lits(c)
	for _, wl := range [2]Lit{ls[0].Not(), ls[1].Not()} {
		ws := s.watches[wl]
		for i, w := range ws {
			if w.ref&^binFlag == c {
				ws[i] = ws[len(ws)-1]
				s.watches[wl] = ws[:len(ws)-1]
				break
			}
		}
	}
}

// enqueue assigns literal l (making it true) with the given reason clause.
func (s *Solver) enqueue(l Lit, from ClauseRef) {
	v := l.Var()
	s.vals[l] = lTrue
	s.vals[l.Not()] = lFalse
	s.polarity[v] = l.IsPos()
	s.reason[v] = from
	s.level[v] = int32(s.decisionLevel())
	s.trail = append(s.trail, l)
}

// propagate performs unit propagation over the two-watched-literal scheme.
// It returns a conflicting clause ref, or NilRef if no conflict occurred.
//
// Each watch list is compacted in place: i reads, j writes back the
// watchers that stay. Binary watchers are settled from the watcher alone.
func (s *Solver) propagate() ClauseRef {
	vals, data := s.vals, s.ca.data
	for s.qhead < len(s.trail) {
		p := s.trail[s.qhead] // p became true; the literal ¬p is now false
		s.qhead++
		s.stats.Propagations++
		falseLit := p.Not()
		// Clauses watching a literal w live in watches[w.Not()], so the
		// clauses watching ¬p are found under watches[p].
		ws := s.watches[p]
		i, j := 0, 0
		confl := NilRef
		for i < len(ws) {
			w := ws[i]
			i++
			if vals[w.blocker] == lTrue {
				ws[j] = w
				j++
				continue
			}
			if w.ref&binFlag != 0 {
				// The blocker is the clause's other literal: unit or
				// conflicting, and the watcher stays either way.
				ws[j] = w
				j++
				c := w.ref &^ binFlag
				if vals[w.blocker] == lFalse {
					// Conflict analysis walks the clause in arena order:
					// store it as [other, ¬p], with the falsified watch
					// second like every long conflicting clause.
					data[c+headerWords], data[c+headerWords+1] = w.blocker, falseLit
					confl = c
					break
				}
				s.enqueue(w.blocker, c)
				continue
			}
			c := w.ref
			lo := int(c) + headerWords
			ls := data[lo : lo+int(data[c])>>flagBits]
			// Ensure the falsified literal is at position 1.
			if ls[0] == falseLit {
				ls[0], ls[1] = ls[1], ls[0]
			}
			first := ls[0]
			if first != w.blocker && vals[first] == lTrue {
				ws[j] = watcher{c, first}
				j++
				continue
			}
			// Look for a new literal to watch.
			found := false
			for k := 2; k < len(ls); k++ {
				if vals[ls[k]] != lFalse {
					ls[1], ls[k] = ls[k], ls[1]
					s.watches[ls[1].Not()] = append(s.watches[ls[1].Not()], watcher{c, first})
					found = true
					break
				}
			}
			if found {
				continue
			}
			// Clause is unit or conflicting.
			ws[j] = watcher{c, first}
			j++
			if vals[first] == lFalse {
				confl = c
				break
			}
			s.enqueue(first, c)
		}
		if confl != NilRef {
			// Keep the unvisited watchers and stop propagating.
			j += copy(ws[j:], ws[i:])
			s.watches[p] = ws[:j]
			s.qhead = len(s.trail)
			return confl
		}
		s.watches[p] = ws[:j]
	}
	return NilRef
}

// cancelUntil backtracks to the given decision level, unassigning variables
// and saving their phases.
func (s *Solver) cancelUntil(lvl int) {
	if s.decisionLevel() <= lvl {
		return
	}
	limit := s.trailLim[lvl]
	for i := len(s.trail) - 1; i >= limit; i-- {
		l := s.trail[i]
		v := l.Var()
		s.vals[l], s.vals[l.Not()] = lUndef, lUndef
		s.reason[v] = NilRef
		s.order.push(v)
	}
	s.trail = s.trail[:limit]
	s.trailLim = s.trailLim[:lvl]
	s.qhead = len(s.trail)
}

// bumpVar increases a variable's VSIDS activity.
func (s *Solver) bumpVar(v Var) {
	s.activity[v] += s.varInc
	if s.activity[v] > 1e100 {
		for i := range s.activity {
			s.activity[i] *= 1e-100
		}
		s.varInc *= 1e-100
		s.order.rebuild()
	}
	s.order.update(v)
}

// bumpClause increases a learnt clause's activity.
func (s *Solver) bumpClause(c ClauseRef) {
	act := s.ca.activity(c) + s.claInc
	s.ca.setActivity(c, act)
	if act > 1e20 {
		for _, lc := range s.learnts {
			s.ca.setActivity(lc, s.ca.activity(lc)*1e-20)
		}
		s.claInc *= 1e-20
	}
}

const (
	varDecay    = 1 / 0.95
	clauseDecay = 1 / 0.999
)

// clauseLBD computes the literal block distance of a clause whose literals
// are all assigned: the number of distinct non-zero decision levels.
func (s *Solver) clauseLBD(lits []Lit) int {
	s.lbdStamp++
	lbd := 0
	for _, l := range lits {
		lvl := int(s.level[l.Var()])
		if lvl == 0 {
			continue
		}
		for lvl >= len(s.levelMark) {
			s.levelMark = append(s.levelMark, 0)
		}
		if s.levelMark[lvl] != s.lbdStamp {
			s.levelMark[lvl] = s.lbdStamp
			lbd++
		}
	}
	if lbd == 0 {
		lbd = 1
	}
	return lbd
}

// analyze performs first-UIP conflict analysis, returning the learnt clause
// (asserting literal first), the backtrack level, and the clause's LBD
// (computed here, while every literal is still assigned). The learnt slice
// is solver-owned scratch, valid until the next call.
func (s *Solver) analyze(confl ClauseRef) ([]Lit, int, int) {
	learnt := append(s.learntBuf[:0], LitUndef) // slot 0 for the asserting literal
	pathC := 0
	p := LitUndef
	index := len(s.trail) - 1
	for {
		ls := s.ca.lits(confl)
		if s.ca.learnt(confl) {
			s.bumpClause(confl)
			// Glucose-style refresh: a reused clause whose literals now
			// span fewer levels is promoted toward the core tier. Clauses
			// already at core LBD can't be demoted, so skip the recompute.
			if s.ca.lbd(confl) > coreLBD {
				if lbd := s.clauseLBD(ls); lbd < s.ca.lbd(confl) {
					s.ca.setLBD(confl, lbd)
				}
			}
		}
		for _, q := range ls {
			if q == p {
				// The literal this reason implied; a binary reason may hold
				// it at either position. p is LitUndef on the conflict.
				continue
			}
			v := q.Var()
			if s.seen[v] == 0 && s.level[v] > 0 {
				s.bumpVar(v)
				s.seen[v] = 1
				if int(s.level[v]) == s.decisionLevel() {
					pathC++
				} else {
					learnt = append(learnt, q)
				}
			}
		}
		// Select next literal to expand from the trail.
		for s.seen[s.trail[index].Var()] == 0 {
			index--
		}
		p = s.trail[index]
		index--
		confl = s.reason[p.Var()]
		s.seen[p.Var()] = 0
		pathC--
		if pathC == 0 {
			break
		}
	}
	learnt[0] = p.Not()
	s.learntBuf = learnt

	// Clause minimization: drop literals whose reason is subsumed by the
	// remaining learnt clause (simple non-recursive check). Keep the full
	// pre-minimization list so every seen flag is cleared afterwards.
	toClear := append(s.toClear[:0], learnt...)
	s.toClear = toClear
	minimized := learnt[:1]
	for _, q := range learnt[1:] {
		if !s.litRedundant(q) {
			minimized = append(minimized, q)
		}
	}
	learnt = minimized
	lbd := s.clauseLBD(learnt)

	// Compute backtrack level: the second-highest level in the clause.
	btLevel := 0
	if len(learnt) > 1 {
		maxI := 1
		for i := 2; i < len(learnt); i++ {
			if s.level[learnt[i].Var()] > s.level[learnt[maxI].Var()] {
				maxI = i
			}
		}
		learnt[1], learnt[maxI] = learnt[maxI], learnt[1]
		btLevel = int(s.level[learnt[1].Var()])
	}
	for _, q := range toClear {
		s.seen[q.Var()] = 0
	}
	return learnt, btLevel, lbd
}

// litRedundant reports whether literal q in a learnt clause is implied by
// the other marked literals (one-step self-subsumption).
func (s *Solver) litRedundant(q Lit) bool {
	r := s.reason[q.Var()]
	if r == NilRef {
		return false
	}
	for _, l := range s.ca.lits(r) {
		if l == q.Not() {
			continue
		}
		v := l.Var()
		if s.seen[v] == 0 && s.level[v] > 0 {
			return false
		}
	}
	return true
}

// otfSubsumeMaxSize bounds the subset check of on-the-fly self-subsumption;
// beyond it the quadratic literal comparison stops paying for itself.
const otfSubsumeMaxSize = 32

// otfSubsume deletes the conflicting clause when the freshly learnt clause
// strictly subsumes it (every learnt literal occurs in it). Sound because
// the learnt clause is implied by the formula, so replacing a superset by
// it preserves equivalence. Restricted to learnt-tier conflicts: problem
// clauses must survive verbatim for WriteDIMACS and NumClauses, and
// core-tier learnts (LBD ≤ coreLBD) are spared — they encode tight
// cross-level structure whose deletion measurably degrades the search even
// when a logically stronger clause replaces them. A conflicting clause has
// all literals false, hence is never a reason.
func (s *Solver) otfSubsume(confl ClauseRef, learnt []Lit) {
	if !s.ca.learnt(confl) || s.ca.lbd(confl) <= coreLBD {
		return
	}
	cl := s.ca.lits(confl)
	if len(learnt) >= len(cl) || len(cl) > otfSubsumeMaxSize {
		return
	}
	for _, q := range learnt {
		found := false
		for _, l := range cl {
			if l == q {
				found = true
				break
			}
		}
		if !found {
			return
		}
	}
	s.detachClause(confl)
	s.ca.markDeleted(confl)
	s.stats.Subsumed++
}

// shareMaxLBD / shareMaxSize gate portfolio clause export: only short,
// low-glue learnts are worth a peer's propagation cycles.
const (
	shareMaxLBD  = 4
	shareMaxSize = 30
)

// recordLearnt installs a learnt clause with the given LBD and enqueues its
// asserting literal.
func (s *Solver) recordLearnt(learnt []Lit, lbd int) {
	s.stats.Learnt++
	s.stats.LBDHist[lbdBucket(lbd)]++
	if s.export != nil && lbd <= shareMaxLBD && len(learnt) <= shareMaxSize {
		if s.export(append([]Lit(nil), learnt...), lbd) {
			s.stats.SharedExports++
		}
	}
	if len(learnt) == 1 {
		s.enqueue(learnt[0], NilRef)
		return
	}
	c := s.ca.alloc(learnt, true)
	s.ca.setLBD(c, lbd)
	s.learnts = append(s.learnts, c)
	s.bumpClause(c)
	s.watchClause(c)
	s.enqueue(learnt[0], c)
}

// coreLBD is the tier boundary: learnt clauses at or below this glue are
// kept forever (they encode tight cross-level structure and re-derive
// themselves anyway if deleted).
const coreLBD = 3

// locked reports whether c is the reason of its first literal's assignment.
// Only valid for clauses of three or more literals: propagation leaves a
// binary clause's literals where they are, so its implied literal may sit
// at either position.
func (s *Solver) locked(c ClauseRef) bool {
	l0 := s.ca.lits(c)[0]
	return s.value(l0) == lTrue && s.reason[l0.Var()] == c
}

// reduceDB removes roughly half of the reducible learnt clauses. The core
// tier (LBD ≤ coreLBD), binary clauses, and locked (reason) clauses are
// exempt; the rest is ranked by (LBD ascending, activity descending) and the
// worse half is tombstoned. A compacting GC runs when enough of the arena
// is dead.
func (s *Solver) reduceDB() {
	cands := make([]ClauseRef, 0, len(s.learnts))
	for _, c := range s.learnts {
		if s.ca.deleted(c) || s.ca.size(c) == 2 || s.ca.lbd(c) <= coreLBD || s.locked(c) {
			continue
		}
		cands = append(cands, c)
	}
	sort.Slice(cands, func(i, j int) bool {
		li, lj := s.ca.lbd(cands[i]), s.ca.lbd(cands[j])
		if li != lj {
			return li < lj
		}
		return s.ca.activity(cands[i]) > s.ca.activity(cands[j])
	})
	for _, c := range cands[len(cands)/2:] {
		s.detachClause(c)
		s.ca.markDeleted(c)
		s.stats.Removed++
	}
	kept := s.learnts[:0]
	for _, c := range s.learnts {
		if !s.ca.deleted(c) {
			kept = append(kept, c)
		}
	}
	s.learnts = kept
	if s.ca.wasted > len(s.ca.data)/4 {
		s.garbageCollect()
	}
}

// garbageCollect compacts the clause arena: live clauses are copied into a
// fresh slab in clause-list order, reason slots are remapped through the
// forwarding map, and watcher lists are rebuilt from the relocated watch
// pairs (positions 0 and 1 are preserved by relocation, so the two-watched
// invariant carries over even mid-search). The fresh slab keeps the old
// one's capacity: learning refills it, and a slab sized to the survivors
// would be regrown, and copied whole, by the next few learnt clauses.
func (s *Solver) garbageCollect() {
	var dst arena
	dst.data = make([]Lit, 0, cap(s.ca.data))
	forward := s.ca.gcInto(&dst, &s.clauses, &s.learnts)
	for v := range s.reason {
		if r := s.reason[v]; r != NilRef {
			s.reason[v] = forward[r]
		}
	}
	for i := range s.watches {
		s.watches[i] = s.watches[i][:0]
	}
	s.ca = dst
	for _, c := range s.clauses {
		s.watchClause(c)
	}
	for _, c := range s.learnts {
		s.watchClause(c)
	}
	s.stats.ArenaGCs++
}

// pickBranchVar selects the next decision variable: usually the activity
// maximum, with an Options.RandomVarFreq chance of a uniformly random
// unassigned variable (portfolio diversification).
func (s *Solver) pickBranchVar() Var {
	if s.opts.RandomVarFreq > 0 && s.rng.chance(s.opts.RandomVarFreq) {
		for t := 0; t < 8; t++ {
			v := Var(s.rng.intn(s.NumVars()))
			if s.vals[v.Pos()] == lUndef {
				return v
			}
		}
	}
	for !s.order.empty() {
		v := s.order.pop()
		if s.vals[v.Pos()] == lUndef {
			return v
		}
	}
	return -1
}

// decisionPhase selects the phase for a decision on v per Options.Polarity.
func (s *Solver) decisionPhase(v Var) bool {
	switch s.opts.Polarity {
	case PolarityTrue:
		return true
	case PolarityFalse:
		return false
	case PolarityRandom:
		return s.rng.next()&1 == 1
	default:
		return s.polarity[v]
	}
}

// luby computes the Luby restart sequence element for 0-based index x:
// 1,1,2,1,1,2,4,1,1,2,1,1,2,4,8,…
func luby(x int64) int64 {
	var size, seq int64 = 1, 0
	for size < x+1 {
		seq++
		size = 2*size + 1
	}
	for size-1 != x {
		size = (size - 1) >> 1
		seq--
		x %= size
	}
	return 1 << uint(seq)
}

// Solve determines satisfiability of the clause set under the given
// assumption literals. It returns Sat, Unsat, or Unknown (only if
// Options.MaxConflicts was exceeded). The model after Sat is read with
// Value.
func (s *Solver) Solve(assumptions ...Lit) Status {
	return s.SolveContext(context.Background(), assumptions...)
}

// SolveContext is Solve with cancellation support: the context is checked
// at every restart boundary and additionally every Options.CtxPollConflicts
// conflicts within a restart, so cancellation takes effect promptly even
// inside the long late-Luby restart intervals. A cancelled or expired
// context yields Unknown; callers distinguish it from conflict-budget
// exhaustion via ctx.Err().
//
// When the result is Unsat because of the assumptions, the minimized
// inconsistent subset of the assumptions is available from UnsatCore.
func (s *Solver) SolveContext(ctx context.Context, assumptions ...Lit) Status {
	st := s.solveLimited(ctx, assumptions, s.opts.MaxConflicts)
	if st == Unsat && s.unsatAssumptions && len(s.unsatCore) > 1 {
		s.minimizeCore(ctx, assumptions)
	}
	return st
}

// solveLimited runs the restart loop under the given conflict budget
// (0 = unlimited) without core minimization.
func (s *Solver) solveLimited(ctx context.Context, assumptions []Lit, maxConflicts int64) Status {
	s.unsatAssumptions = false
	s.failedAssumption = LitUndef
	s.unsatCore = nil
	if s.unsat {
		return Unsat
	}
	s.cancelUntil(0)
	if s.propagate() != NilRef {
		s.unsat = true
		return Unsat
	}

	var totalConflicts int64
	restart := int64(-1)
	geomBudget := float64(s.opts.RestartBase)
	maxLearnts := len(s.clauses)/3 + s.opts.ReduceBase

	for {
		if ctx.Err() != nil {
			s.cancelUntil(0)
			return Unknown
		}
		// Restart boundary: the trail is at level 0, the only point where
		// peer clauses can be installed without backtracking bookkeeping.
		if s.importLearnts != nil && !s.drainImports() {
			s.unsat = true
			return Unsat
		}
		restart++
		var budget int64
		if s.opts.Restart == RestartGeometric {
			budget = int64(geomBudget)
			geomBudget *= s.opts.RestartFactor
		} else {
			budget = int64(s.opts.RestartBase) * luby(restart)
		}
		st := s.search(ctx, assumptions, budget, &totalConflicts, maxConflicts, maxLearnts)
		switch st {
		case Sat, Unsat:
			s.cancelUntilRoot(st)
			return st
		}
		s.stats.Restarts++
		if maxConflicts > 0 && totalConflicts >= maxConflicts {
			s.cancelUntil(0)
			return Unknown
		}
		maxLearnts += maxLearnts / 10
	}
}

// drainImports installs clauses offered by portfolio peers. Called at
// decision level 0 only. Returns false if an import (necessarily sound —
// learnt clauses never depend on assumptions) exposed level-0
// unsatisfiability.
func (s *Solver) drainImports() bool {
	for _, lits := range s.importLearnts() {
		if !s.addImported(lits) {
			return false
		}
	}
	return true
}

// addImported installs one peer-learnt clause at level 0, applying the same
// normalization as AddClause but storing the clause in the learnt tier so
// the problem clause set (NumClauses, WriteDIMACS) is unchanged.
func (s *Solver) addImported(lits []Lit) bool {
	out := make([]Lit, 0, len(lits))
	for _, l := range lits {
		if l.Var() < 0 || int(l.Var()) >= s.NumVars() {
			return true // references a variable this solver hasn't synced yet
		}
		switch s.value(l) {
		case lTrue:
			return true // already satisfied at level 0
		case lFalse:
			continue
		}
		out = append(out, l)
	}
	s.stats.SharedImports++
	switch len(out) {
	case 0:
		return false
	case 1:
		s.enqueue(out[0], NilRef)
		return s.propagate() == NilRef
	}
	c := s.ca.alloc(out, true)
	s.ca.setLBD(c, len(out)) // pessimistic; refreshed on first reuse
	s.learnts = append(s.learnts, c)
	s.watchClause(c)
	return true
}

// cancelUntilRoot backtracks to level 0 after a Solve, preserving the model
// if the result was Sat.
func (s *Solver) cancelUntilRoot(st Status) {
	if st == Sat {
		n := s.NumVars()
		if cap(s.model) < n {
			s.model = make([]lbool, n)
		}
		s.model = s.model[:n]
		for v := range s.model {
			s.model[v] = s.vals[Var(v).Pos()]
		}
	}
	s.cancelUntil(0)
}

// UnsatFromAssumptions reports whether the last Solve's Unsat was caused by
// a falsified assumption literal rather than by the clause set itself. When
// it returns true the instance may still be satisfiable under weaker (or
// no) assumptions — the incremental bound descent in internal/exact relies
// on this to relax an over-tight cost bound without re-encoding.
func (s *Solver) UnsatFromAssumptions() bool { return s.unsatAssumptions }

// FailedAssumption returns the assumption literal whose falsification
// caused the last Unsat, or LitUndef when the clause set itself is
// unsatisfiable (or the last result was not Unsat).
func (s *Solver) FailedAssumption() Lit { return s.failedAssumption }

// UnsatCore returns the minimized unsat core over the assumptions of the
// last Solve: a subset of the assumption literals whose conjunction is
// already inconsistent with the clause set. It is non-empty exactly when
// UnsatFromAssumptions reports true. Final-conflict analysis walks the
// implication graph from the falsified assumption back to assumption-level
// decisions (collecting only the assumptions that actually participated in
// the conflict), and the result is then shrunk by recursive literal-removal
// minimization: each literal is tentatively dropped and the rest re-solved
// under a small conflict budget on the same instance — removal attempts run
// in reverse assumption order, so callers probing nested constraints should
// pass the weakest (most likely redundant-making) assumptions first.
//
// The returned slice is owned by the solver and valid until the next Solve.
func (s *Solver) UnsatCore() []Lit { return s.unsatCore }

// analyzeFinal computes the subset of the current assumptions that implies
// ¬p, given that assumption p was found falsified while re-establishing the
// assumption levels. It walks the trail from the top down to the first
// decision, expanding reasons of marked variables; marked decisions are
// assumption literals (the only decisions below the failure point) and join
// the core alongside p itself.
func (s *Solver) analyzeFinal(p Lit) []Lit {
	core := []Lit{p}
	if s.decisionLevel() == 0 {
		return core
	}
	s.seen[p.Var()] = 1
	for i := len(s.trail) - 1; i >= s.trailLim[0]; i-- {
		v := s.trail[i].Var()
		if s.seen[v] == 0 {
			continue
		}
		if r := s.reason[v]; r == NilRef {
			// A decision below the failure point is an assumption, recorded
			// on the trail exactly as it was passed to Solve.
			core = append(core, s.trail[i])
		} else {
			for _, l := range s.ca.lits(r) {
				if s.level[l.Var()] > 0 {
					s.seen[l.Var()] = 1
				}
			}
		}
		s.seen[v] = 0
	}
	s.seen[p.Var()] = 0
	return core
}

// minimizeCoreConflicts bounds each literal-removal probe of the core
// minimization. A probe that exceeds it keeps its literal — minimization
// only ever shrinks a correct core, so truncation stays sound.
const minimizeCoreConflicts = 1000

// minimizeCore shrinks unsatCore by recursive literal removal: drop one
// literal, re-solve the remainder under a conflict budget on the same
// instance (learnt clauses make these probes cheap), and on Unsat adopt the
// probe's own — possibly much smaller — core. Candidates are tried in
// reverse order of the original assumption list. Total minimization work is
// bounded: each probe gets at most minimizeCoreConflicts conflicts, and the
// whole pass stops once it has spent either Options.MaxConflicts (when the
// caller budgeted the solve — minimization must not blow a latency
// contract) or a few probes' worth of conflicts, whichever is smaller.
func (s *Solver) minimizeCore(ctx context.Context, assumptions []Lit) {
	pos := make(map[Lit]int, len(assumptions))
	for i, a := range assumptions {
		pos[a] = i
	}
	core := append([]Lit(nil), s.unsatCore...)
	sort.Slice(core, func(i, j int) bool { return pos[core[i]] > pos[core[j]] })
	failed := s.failedAssumption

	perProbe := int64(minimizeCoreConflicts)
	allowance := 8 * perProbe
	if s.opts.MaxConflicts > 0 && s.opts.MaxConflicts < allowance {
		allowance = s.opts.MaxConflicts
	}
	if perProbe > allowance {
		perProbe = allowance
	}
	spent := s.stats.Conflicts

	for i := 0; i < len(core) && len(core) > 1; {
		if s.stats.Conflicts-spent >= allowance {
			break // minimization allowance exhausted; the core stays sound
		}
		trial := make([]Lit, 0, len(core)-1)
		trial = append(trial, core[:i]...)
		trial = append(trial, core[i+1:]...)
		st := s.solveLimited(ctx, trial, perProbe)
		switch {
		case st == Unsat && s.unsatAssumptions:
			// Still inconsistent without core[i]; adopt the probe's core
			// (a subset of trial, possibly dropping several literals) and
			// rescan from the front.
			core = append(core[:0], s.unsatCore...)
			sort.Slice(core, func(a, b int) bool { return pos[core[a]] > pos[core[b]] })
			i = 0
		case st == Unsat:
			// The probe derived genuine unsatisfiability of the clause set:
			// no assumption subset is to blame anymore.
			s.unsatAssumptions = false
			s.failedAssumption = LitUndef
			s.unsatCore = nil
			return
		default:
			i++ // Sat or budget/ctx truncation: the literal stays
		}
	}

	// Restore the attribution the probes overwrote.
	s.unsatAssumptions = true
	s.unsatCore = core
	s.failedAssumption = core[0]
	for _, l := range core {
		if l == failed {
			s.failedAssumption = failed
			break
		}
	}
}

// search runs CDCL until a result, a conflict budget exhaustion (returns
// Unknown to trigger a restart), a context cancellation (also Unknown; the
// caller re-checks ctx), or an assumption failure.
func (s *Solver) search(ctx context.Context, assumptions []Lit, budget int64, totalConflicts *int64, maxConflicts int64, maxLearnts int) Status {
	var conflicts int64
	ctxPoll := int64(s.opts.CtxPollConflicts)
	for {
		confl := s.propagate()
		if confl != NilRef {
			conflicts++
			*totalConflicts++
			s.stats.Conflicts++
			if s.decisionLevel() == 0 {
				s.unsat = true
				return Unsat
			}
			learnt, btLevel, lbd := s.analyze(confl)
			s.otfSubsume(confl, learnt)
			// Never backtrack past the assumption levels' prefix that
			// remains consistent; cancelUntil handles any level, and the
			// assumption re-decision logic below re-establishes them.
			s.cancelUntil(btLevel)
			s.recordLearnt(learnt, lbd)
			s.varInc *= varDecay
			s.claInc *= clauseDecay
			if len(s.learnts) >= maxLearnts+len(s.trail) {
				s.reduceDB()
			}
			if conflicts >= budget || (maxConflicts > 0 && *totalConflicts >= maxConflicts) {
				s.cancelUntil(0)
				return Unknown
			}
			if conflicts%ctxPoll == 0 && ctx.Err() != nil {
				s.cancelUntil(0)
				return Unknown
			}
			continue
		}
		// Decision: first re-establish assumptions, then branch.
		var next Lit = LitUndef
		for s.decisionLevel() < len(assumptions) {
			a := assumptions[s.decisionLevel()]
			switch s.value(a) {
			case lTrue:
				// Already satisfied; open an empty decision level so
				// each assumption owns one level.
				s.trailLim = append(s.trailLim, len(s.trail))
				continue
			case lFalse:
				// Conflicts with current clauses: unsatisfiable under
				// assumptions (the clause set itself may still be SAT).
				// Final-conflict analysis pins down which assumptions
				// actually participated.
				s.unsatAssumptions = true
				s.failedAssumption = a
				s.unsatCore = s.analyzeFinal(a)
				return Unsat
			}
			next = a
			break
		}
		if next == LitUndef {
			v := s.pickBranchVar()
			if v < 0 {
				return Sat // all variables assigned
			}
			s.stats.Decisions++
			next = v.Lit(s.decisionPhase(v))
		}
		s.trailLim = append(s.trailLim, len(s.trail))
		s.enqueue(next, NilRef)
	}
}
