// Package sat implements a CDCL (conflict-driven clause learning) boolean
// satisfiability solver: two-watched-literal propagation, 1-UIP conflict
// analysis with clause learning, VSIDS-style activity ordering, phase
// saving and Luby restarts.
//
// The solver is incremental in the MiniSat style: SolveWith/SolveAssuming
// decide satisfiability under a set of assumption literals enqueued as
// successive decisions, clauses may be added between calls, and learned
// clauses persist across calls (they are derived from the clause database
// alone, so they stay valid whatever the next call assumes). Models are
// captured on SAT and survive backtracking, so Value works after the
// trail has been unwound.
//
// It plays the role STP/Z3 play inside KLEE for the paper: the backend that
// decides path feasibility and produces counterexample models after the
// bitvector layer (internal/bitblast) has reduced formulas to CNF.
package sat

// Lit is a literal: variable index v (0-based) encoded as 2v for the
// positive polarity and 2v+1 for the negative.
type Lit int32

// MkLit builds a literal from a variable index and polarity.
func MkLit(v int, neg bool) Lit {
	l := Lit(v << 1)
	if neg {
		l |= 1
	}
	return l
}

// Var returns the literal's variable index.
func (l Lit) Var() int { return int(l >> 1) }

// Neg reports whether the literal is negated.
func (l Lit) Neg() bool { return l&1 == 1 }

// Not returns the complementary literal.
func (l Lit) Not() Lit { return l ^ 1 }

// lbool is a three-valued boolean.
type lbool int8

const (
	lUndef lbool = iota
	lTrue
	lFalse
)

func boolToL(b bool) lbool {
	if b {
		return lTrue
	}
	return lFalse
}

type clause struct {
	lits    []Lit
	learned bool
	act     float64
}

type watcher struct {
	c       *clause
	blocker Lit // cached literal; if true, clause is satisfied
}

// Solver holds all solver state. The zero value is not usable; call New.
type Solver struct {
	clauses  []*clause
	learned  []*clause
	watches  [][]watcher // indexed by literal
	assign   []lbool     // indexed by variable
	level    []int32     // decision level per variable
	reason   []*clause   // antecedent clause per variable
	trail    []Lit
	trailLim []int // trail index per decision level
	qhead    int

	activity  []float64
	varInc    float64
	order     *varHeap
	phase     []bool // saved phases
	clauseInc float64

	unsat     bool
	conflicts int64
	decisions int64
	propags   int64
	learned64 int64 // clauses learned over the solver's lifetime

	model []lbool // assignment captured at the last SAT answer

	seen []bool // scratch for conflict analysis
}

// Outcome is the result of an incremental solve. The search always runs
// to completion, so it is either Sat or Unsat.
type Outcome int8

const (
	Sat Outcome = iota + 1
	Unsat
)

func (o Outcome) String() string {
	if o == Sat {
		return "sat"
	}
	return "unsat"
}

// New returns an empty solver.
func New() *Solver {
	s := &Solver{varInc: 1, clauseInc: 1}
	s.order = &varHeap{s: s}
	return s
}

// NumVars returns the number of allocated variables.
func (s *Solver) NumVars() int { return len(s.assign) }

// NumClauses returns the number of stored problem clauses. Unit clauses
// are enqueued directly rather than stored, and learned clauses are
// tracked separately; neither is counted here.
func (s *Solver) NumClauses() int { return len(s.clauses) }

// Stats returns (decisions, propagations, conflicts) counters.
func (s *Solver) Stats() (int64, int64, int64) { return s.decisions, s.propags, s.conflicts }

// Learned returns the number of clauses learned over the solver's lifetime
// (including those since removed by database reduction).
func (s *Solver) Learned() int64 { return s.learned64 }

// NewVar allocates a fresh variable and returns its index.
func (s *Solver) NewVar() int {
	v := len(s.assign)
	s.assign = append(s.assign, lUndef)
	s.level = append(s.level, 0)
	s.reason = append(s.reason, nil)
	s.activity = append(s.activity, 0)
	s.phase = append(s.phase, false)
	s.seen = append(s.seen, false)
	s.watches = append(s.watches, nil, nil)
	s.order.push(v)
	return v
}

func (s *Solver) litValue(l Lit) lbool {
	v := s.assign[l.Var()]
	if v == lUndef {
		return lUndef
	}
	if l.Neg() {
		if v == lTrue {
			return lFalse
		}
		return lTrue
	}
	return v
}

// AddClause adds a clause over the given literals. Returns false if the
// formula became trivially unsatisfiable.
func (s *Solver) AddClause(lits ...Lit) bool {
	if s.unsat {
		return false
	}
	if len(s.trailLim) != 0 {
		// Solves always unwind to level 0 before returning, so this only
		// fires on misuse from inside the search itself.
		panic("sat: AddClause mid-search")
	}
	// Deduplicate and drop falsified/tautological literals.
	out := lits[:0:0]
	for _, l := range lits {
		switch s.litValue(l) {
		case lTrue:
			return true // already satisfied at level 0
		case lFalse:
			continue
		}
		dup, taut := false, false
		for _, o := range out {
			if o == l {
				dup = true
				break
			}
			if o == l.Not() {
				taut = true
				break
			}
		}
		if taut {
			return true
		}
		if !dup {
			out = append(out, l)
		}
	}
	switch len(out) {
	case 0:
		s.unsat = true
		return false
	case 1:
		if !s.enqueue(out[0], nil) {
			s.unsat = true
			return false
		}
		if s.propagate() != nil {
			s.unsat = true
			return false
		}
		return true
	}
	c := &clause{lits: out}
	s.clauses = append(s.clauses, c)
	s.watch(c)
	return true
}

func (s *Solver) watch(c *clause) {
	s.watches[c.lits[0].Not()] = append(s.watches[c.lits[0].Not()], watcher{c, c.lits[1]})
	s.watches[c.lits[1].Not()] = append(s.watches[c.lits[1].Not()], watcher{c, c.lits[0]})
}

func (s *Solver) enqueue(l Lit, from *clause) bool {
	switch s.litValue(l) {
	case lTrue:
		return true
	case lFalse:
		return false
	}
	v := l.Var()
	s.assign[v] = boolToL(!l.Neg())
	s.level[v] = int32(len(s.trailLim))
	s.reason[v] = from
	s.phase[v] = !l.Neg()
	s.trail = append(s.trail, l)
	return true
}

// propagate runs unit propagation; returns the conflicting clause, if any.
func (s *Solver) propagate() *clause {
	for s.qhead < len(s.trail) {
		p := s.trail[s.qhead] // p is now true
		s.qhead++
		s.propags++
		ws := s.watches[p]
		kept := ws[:0]
		var confl *clause
		for i := 0; i < len(ws); i++ {
			w := ws[i]
			if confl != nil {
				kept = append(kept, ws[i:]...)
				break
			}
			if s.litValue(w.blocker) == lTrue {
				kept = append(kept, w)
				continue
			}
			c := w.c
			// Ensure the false literal (p.Not()) is at position 1.
			if c.lits[0] == p.Not() {
				c.lits[0], c.lits[1] = c.lits[1], c.lits[0]
			}
			first := c.lits[0]
			if first != w.blocker && s.litValue(first) == lTrue {
				kept = append(kept, watcher{c, first})
				continue
			}
			// Look for a new literal to watch.
			found := false
			for k := 2; k < len(c.lits); k++ {
				if s.litValue(c.lits[k]) != lFalse {
					c.lits[1], c.lits[k] = c.lits[k], c.lits[1]
					s.watches[c.lits[1].Not()] = append(s.watches[c.lits[1].Not()], watcher{c, first})
					found = true
					break
				}
			}
			if found {
				continue // watcher moved; drop from this list
			}
			// Clause is unit or conflicting.
			kept = append(kept, watcher{c, first})
			if s.litValue(first) == lFalse {
				confl = c
				s.qhead = len(s.trail)
			} else if !s.enqueue(first, c) {
				confl = c
				s.qhead = len(s.trail)
			}
		}
		s.watches[p] = kept
		if confl != nil {
			return confl
		}
	}
	return nil
}

func (s *Solver) decisionLevel() int { return len(s.trailLim) }

func (s *Solver) newDecisionLevel() { s.trailLim = append(s.trailLim, len(s.trail)) }

func (s *Solver) cancelUntil(level int) {
	if s.decisionLevel() <= level {
		return
	}
	for i := len(s.trail) - 1; i >= s.trailLim[level]; i-- {
		v := s.trail[i].Var()
		s.assign[v] = lUndef
		s.reason[v] = nil
		s.order.pushIfAbsent(v)
	}
	s.trail = s.trail[:s.trailLim[level]]
	s.trailLim = s.trailLim[:level]
	s.qhead = len(s.trail)
}

func (s *Solver) bumpVar(v int) {
	s.activity[v] += s.varInc
	if s.activity[v] > 1e100 {
		for i := range s.activity {
			s.activity[i] *= 1e-100
		}
		s.varInc *= 1e-100
	}
	s.order.update(v)
}

func (s *Solver) bumpClause(c *clause) {
	c.act += s.clauseInc
	if c.act > 1e20 {
		for _, lc := range s.learned {
			lc.act *= 1e-20
		}
		s.clauseInc *= 1e-20
	}
}

// analyze performs 1-UIP conflict analysis, returning the learned clause
// (with the asserting literal first) and the backjump level.
func (s *Solver) analyze(confl *clause) ([]Lit, int) {
	learnt := []Lit{0} // slot 0 reserved for the asserting literal
	counter := 0
	var p Lit = -1
	idx := len(s.trail) - 1

	for {
		s.bumpClause(confl)
		start := 0
		if p != -1 {
			start = 1 // skip the asserting literal slot of the reason
		}
		for j := start; j < len(confl.lits); j++ {
			q := confl.lits[j]
			v := q.Var()
			if s.seen[v] || s.level[v] == 0 {
				continue
			}
			s.seen[v] = true
			s.bumpVar(v)
			if int(s.level[v]) >= s.decisionLevel() {
				counter++
			} else {
				learnt = append(learnt, q)
			}
		}
		// Find the next literal to resolve on.
		for !s.seen[s.trail[idx].Var()] {
			idx--
		}
		p = s.trail[idx]
		idx--
		v := p.Var()
		s.seen[v] = false
		counter--
		if counter == 0 {
			learnt[0] = p.Not()
			break
		}
		confl = s.reason[v]
	}

	// Compute backjump level: the max level among the non-asserting lits.
	bt := 0
	if len(learnt) > 1 {
		maxI := 1
		for i := 2; i < len(learnt); i++ {
			if s.level[learnt[i].Var()] > s.level[learnt[maxI].Var()] {
				maxI = i
			}
		}
		learnt[1], learnt[maxI] = learnt[maxI], learnt[1]
		bt = int(s.level[learnt[1].Var()])
	}
	for _, l := range learnt {
		s.seen[l.Var()] = false
	}
	return learnt, bt
}

func (s *Solver) record(learnt []Lit) {
	s.learned64++
	if len(learnt) == 1 {
		s.enqueue(learnt[0], nil)
		return
	}
	c := &clause{lits: learnt, learned: true, act: s.clauseInc}
	s.learned = append(s.learned, c)
	s.watch(c)
	s.enqueue(learnt[0], c)
}

// reduceDB removes the less active half of the learned clauses.
func (s *Solver) reduceDB() {
	if len(s.learned) < 4 {
		return
	}
	// Partial selection: keep binary clauses and the more active half.
	lim := medianAct(s.learned)
	kept := s.learned[:0]
	for _, c := range s.learned {
		if len(c.lits) <= 2 || c.act >= lim || s.locked(c) {
			kept = append(kept, c)
		} else {
			s.unwatch(c)
		}
	}
	s.learned = kept
}

func (s *Solver) locked(c *clause) bool {
	v := c.lits[0].Var()
	return s.reason[v] == c && s.assign[v] != lUndef
}

func (s *Solver) unwatch(c *clause) {
	for _, wl := range []Lit{c.lits[0].Not(), c.lits[1].Not()} {
		ws := s.watches[wl]
		for i := range ws {
			if ws[i].c == c {
				ws[i] = ws[len(ws)-1]
				s.watches[wl] = ws[:len(ws)-1]
				break
			}
		}
	}
}

func medianAct(cs []*clause) float64 {
	var sum float64
	for _, c := range cs {
		sum += c.act
	}
	return sum / float64(len(cs))
}

// luby computes the Luby restart sequence value for index i (1-based).
func luby(i int64) int64 {
	for k := int64(1); ; k++ {
		if i == (1<<uint(k))-1 {
			return 1 << uint(k-1)
		}
		if i >= 1<<uint(k-1) && i < (1<<uint(k))-1 {
			return luby(i - (1 << uint(k-1)) + 1)
		}
	}
}

// Solve decides satisfiability of the accumulated clauses. It returns true
// for SAT (a model is then available via Value) and false for UNSAT.
func (s *Solver) Solve() bool { return s.SolveWith(nil) == Sat }

// SolveAssuming decides satisfiability under the given assumption
// literals. It returns true for SAT; false means the clauses are
// unsatisfiable together with the assumptions (Okay() distinguishes a
// global contradiction from an assumption failure). Learned clauses are
// retained across calls, and more clauses may be added between calls.
func (s *Solver) SolveAssuming(assumps ...Lit) bool { return s.SolveWith(assumps) == Sat }

// SolveWith is the incremental entry point: it decides satisfiability
// under assumps, each enqueued as a decision at its own level
// (MiniSat-style). The trail is always unwound to level 0 before
// returning; on Sat the model is captured first and stays readable via
// Value.
func (s *Solver) SolveWith(assumps []Lit) Outcome {
	if s.unsat {
		return Unsat
	}
	s.cancelUntil(0)
	if confl := s.propagate(); confl != nil {
		s.unsat = true
		return Unsat
	}
	restart := int64(1)
	for {
		budget := 100 * luby(restart)
		res := s.search(budget, assumps)
		switch res {
		case lTrue:
			// Capture the model before unwinding: the caller reads it
			// through Value after the trail is gone.
			s.model = append(s.model[:0], s.assign...)
			s.cancelUntil(0)
			return Sat
		case lFalse:
			// Either a global level-0 contradiction (s.unsat was set in
			// search) or a conflict with the assumptions; both are UNSAT
			// for this call.
			s.cancelUntil(0)
			return Unsat
		}
		s.cancelUntil(0)
		restart++
		if restart%8 == 0 {
			s.reduceDB()
		}
	}
}

func (s *Solver) search(budget int64, assumps []Lit) lbool {
	for n := int64(0); ; {
		confl := s.propagate()
		if confl != nil {
			s.conflicts++
			n++
			if s.decisionLevel() == 0 {
				s.unsat = true
				return lFalse
			}
			learnt, bt := s.analyze(confl)
			s.cancelUntil(bt)
			s.record(learnt)
			s.varInc *= 1.0 / 0.95
			s.clauseInc *= 1.0 / 0.999
			if n >= budget {
				return lUndef
			}
			continue
		}
		// Re-establish any assumption not yet on the trail: one decision
		// level per assumption (dummy levels for already-true ones keep
		// the level/index alignment). A falsified assumption means UNSAT
		// under the assumptions, not a global contradiction.
		if s.decisionLevel() < len(assumps) {
			p := assumps[s.decisionLevel()]
			switch s.litValue(p) {
			case lTrue:
				s.newDecisionLevel()
			case lFalse:
				return lFalse
			default:
				s.newDecisionLevel()
				s.enqueue(p, nil)
			}
			continue
		}
		// Pick a branching variable.
		v := s.pickBranch()
		if v < 0 {
			return lTrue // all assigned: model found
		}
		s.decisions++
		s.newDecisionLevel()
		s.enqueue(MkLit(v, !s.phase[v]), nil)
	}
}

func (s *Solver) pickBranch() int {
	for {
		v := s.order.pop()
		if v < 0 {
			return -1
		}
		if s.assign[v] == lUndef {
			return v
		}
	}
}

// Value returns the assignment of variable v in the most recently captured
// model (the last solve that answered SAT). Variables allocated after that
// solve read as false.
func (s *Solver) Value(v int) bool { return v < len(s.model) && s.model[v] == lTrue }

// Okay reports whether no top-level contradiction has been derived.
func (s *Solver) Okay() bool { return !s.unsat }
