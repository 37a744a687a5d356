// Package solver decides satisfiability of sets of bitvector constraints.
// It layers cheap decision procedures in front of full bit-blasting:
//
//  1. constant inspection — a constraint already folded to false is UNSAT,
//     and a set folded entirely to true is trivially SAT;
//  2. the memo (memo.go), in two tiers — an exact tier keyed by the
//     ordered conjunct identities replays a repeated query without
//     canonicalizing it; on a miss the query is canonicalized and looked
//     up in the run-wide Shared memo, which matches repeats modulo
//     variable naming and conjunct order across submodels. A hit replays
//     the verdict, witness and stats without any solving;
//  3. assignment guessing — path conditions of P4 models are dominated by
//     equalities between fields and constants, so a model assembled from
//     those equalities (all other variables zero) very often satisfies the
//     whole set and avoids the SAT solver entirely; interval/exclusion
//     probing additionally refutes sets whose per-variable facts already
//     conflict;
//  4. one fresh bit-blast to CNF and CDCL search per query
//     (internal/bitblast, internal/sat), with a lex-min witness on SAT
//     (accel.go).
//
// This mirrors the role of the solver stack under KLEE in the paper, where
// most path-feasibility queries are shallow and only assertion checks on
// arithmetic-heavy paths need real search. All layers return identical
// verdicts and witnesses (full-path models are canonically minimal, see
// accel.go), so the memo never changes a report byte.
package solver

import (
	"slices"
	"time"

	"p4assert/internal/bv"
)

// Result reports the outcome of a satisfiability check.
type Result struct {
	Sat   bool
	Model map[string]uint64 // valid only when Sat; variables not mentioned are zero
	Quick bool              // answered without invoking the SAT solver
}

// Config controls the solver. The zero value enables the memo; disabling
// it gives the reference path the equivalence tests compare against.
type Config struct {
	DisableMemo bool
}

// Stats counts solver activity for the paper's instruction/
// query metrics.
type Stats struct {
	Queries     int64
	QuickSAT    int64
	QuickUNSAT  int64
	FullQueries int64
	// BitblastVars and BitblastClauses accumulate the CNF sizes of the
	// full (layer 3) queries: SAT variables allocated and problem clauses
	// emitted by bit-blasting the canonical conjuncts into an empty
	// solver, measured before search so the counts are a deterministic
	// function of the query formulas — identical whether the query was
	// solved or replayed from the memo.
	BitblastVars    int64
	BitblastClauses int64
	// Accel counts memo hits and raw SAT search effort. Unlike the
	// counters above it is not a deterministic function of (program,
	// options) — memo hits depend on cache state, which parallel runs
	// share — so it is excluded from report JSON and surfaced through the
	// non-comparable telemetry section instead.
	Accel AccelStats `json:"-"`
}

// AccelStats counts memo hits and raw SAT search effort.
type AccelStats struct {
	MemoHits       int64 // queries answered by the memo (either tier)
	MemoSharedHits int64 // subset of MemoHits served by the run-wide tier
	Decisions      int64
	Propagations   int64
	Conflicts      int64
	LearnedClauses int64
	WallNS         int64 // wall time spent inside Check

	// Always zero; perfbench still reads them.
	SessionReuseHits, PortfolioSessionWins, PortfolioFreshWins int64
}

// Add folds o into a, for aggregation across parallel submodel runs.
func (a *AccelStats) Add(o AccelStats) {
	a.MemoHits += o.MemoHits
	a.MemoSharedHits += o.MemoSharedHits
	a.Decisions += o.Decisions
	a.Propagations += o.Propagations
	a.Conflicts += o.Conflicts
	a.LearnedClauses += o.LearnedClauses
	a.WallNS += o.WallNS
}

// Checker decides constraint sets built in a single bv.Context. The zero
// value is ready to use, with the memo enabled. A Checker is not safe for
// concurrent use; parallel submodel executions each own one (optionally
// linked through a Shared memo, which is concurrency-safe).
type Checker struct {
	Ctx    *bv.Context
	Stats  Stats
	Cfg    Config
	Shared *Memo // optional run-wide memo tier behind the exact tier

	exact    map[uint64]*exactEntry // keyed by exactKey of the live conjuncts
	encCache map[*bv.Expr]*localEnc
}

// exactEntry is one exact-tier slot: a query's canonical form, whose
// live field holds the conjuncts in the order they were asked, and the
// outcome it produced.
type exactEntry struct {
	cq *canonQuery
	e  *memoEntry
}

// exactMemoCap bounds the exact tier; a full tier is cleared rather than
// evicted entry by entry, since one execution rarely reaches the cap.
const exactMemoCap = 1 << 12

// New returns a Checker for expressions created in ctx.
func New(ctx *bv.Context) *Checker { return &Checker{Ctx: ctx} }

// Check decides whether the conjunction of constraints is satisfiable.
// Every constraint must have width 1. Check never retains the constraints
// slice (the memo keeps its own copy), so the caller may overwrite it
// once Check returns: the executor reuses a path condition's backing array
// after backtracking.
func (c *Checker) Check(constraints []*bv.Expr) Result {
	c.Stats.Queries++
	t0 := time.Now()
	defer func() { c.Stats.Accel.WallNS += time.Since(t0).Nanoseconds() }()

	// Layer 1: constant inspection.
	live := make([]*bv.Expr, 0, len(constraints))
	for _, e := range constraints {
		if e.IsFalse() {
			c.Stats.QuickUNSAT++
			return Result{Sat: false, Quick: true}
		}
		if !e.IsTrue() {
			live = append(live, e)
		}
	}
	if len(live) == 0 {
		c.Stats.QuickSAT++
		return Result{Sat: true, Model: map[string]uint64{}, Quick: true}
	}

	// Layer 1.5: memo. Quick tiers are deterministic and equivariant
	// under renaming, so their outcomes are memoizable too — a hit
	// replays the exact stats delta the original tier produced. The exact
	// tier answers a repeat of the same conjuncts in the same order
	// without canonicalizing; only its misses pay for the canonical key.
	var cq *canonQuery
	if !c.Cfg.DisableMemo {
		if x := c.exact[exactKey(live)]; x != nil && slices.Equal(x.cq.live, live) {
			return c.replay(x.cq, x.e)
		}
		cq = canonicalize(live, c.encCacheMap())
		if e := c.sharedGet(cq); e != nil {
			return c.replay(cq, e)
		}
	}

	// Layer 2: guessed assignment from equality constraints.
	if env, ok := c.guessFromEqualities(live); ok && evalAll(live, env) {
		return c.quickSAT(cq, live, env)
	}
	// All-zeros is another very common witness (e.g. "no header valid").
	zero := map[string]uint64{}
	if evalAll(live, zero) {
		return c.quickSAT(cq, live, zero)
	}
	// Per-variable interval/exclusion probing: table-miss paths carry long
	// runs of key != rule_i constraints, for which a value outside the
	// exclusion set is an immediate witness — and whose facts, when they
	// contradict each other, refute the whole set without search.
	env, conflict := c.probeBounds(live)
	if conflict {
		c.Stats.QuickUNSAT++
		c.memoPut(cq, &memoEntry{quick: true})
		return Result{Sat: false, Quick: true}
	}
	if env != nil && evalAll(live, env) {
		return c.quickSAT(cq, live, env)
	}

	// Layer 3: one fresh bit-blast and search (accel.go).
	if cq == nil {
		cq = canonicalize(live, c.encCacheMap())
	}
	c.Stats.FullQueries++
	model, vars, clauses := c.solveFull(cq)
	c.Stats.BitblastVars += vars
	c.Stats.BitblastClauses += clauses
	if model == nil {
		c.memoPut(cq, &memoEntry{vars: vars, clauses: clauses})
		return Result{Sat: false}
	}
	c.memoPut(cq, &memoEntry{sat: true, model: canonValues(cq, model), vars: vars, clauses: clauses})
	return Result{Sat: true, Model: model}
}

func (c *Checker) encCacheMap() map[*bv.Expr]*localEnc {
	if c.encCache == nil {
		c.encCache = map[*bv.Expr]*localEnc{}
	}
	return c.encCache
}

// quickSAT records a quick-tier witness, memoizing it in canonical form.
func (c *Checker) quickSAT(cq *canonQuery, live []*bv.Expr, env map[string]uint64) Result {
	c.Stats.QuickSAT++
	m := completeModel(live, env)
	if cq != nil {
		c.memoPut(cq, &memoEntry{sat: true, quick: true, model: canonValues(cq, m)})
	}
	return Result{Sat: true, Model: m, Quick: true}
}

// canonValues projects a model onto the canonical variable order.
func canonValues(cq *canonQuery, m map[string]uint64) []uint64 {
	vals := make([]uint64, len(cq.varOrder))
	for i, name := range cq.varOrder {
		vals[i] = m[name]
	}
	return vals
}

// replay reproduces a memoized outcome: the same Result the original
// tier returned (model transferred through the variable bijection) and
// the same comparable stats delta.
func (c *Checker) replay(cq *canonQuery, e *memoEntry) Result {
	c.Stats.Accel.MemoHits++
	if e.quick {
		if !e.sat {
			c.Stats.QuickUNSAT++
			return Result{Sat: false, Quick: true}
		}
		c.Stats.QuickSAT++
		return Result{Sat: true, Model: namedModel(cq, e.model), Quick: true}
	}
	c.Stats.FullQueries++
	c.Stats.BitblastVars += e.vars
	c.Stats.BitblastClauses += e.clauses
	if !e.sat {
		return Result{Sat: false}
	}
	return Result{Sat: true, Model: namedModel(cq, e.model)}
}

func namedModel(cq *canonQuery, vals []uint64) map[string]uint64 {
	m := make(map[string]uint64, len(cq.varOrder))
	for i, name := range cq.varOrder {
		m[name] = vals[i]
	}
	return m
}

// exactKey hashes the ordered conjunct identities (FNV-1a over the IDs).
// IDs are unique only within one bv.Context, so a match must still be
// confirmed by comparing the conjunct pointers.
func exactKey(live []*bv.Expr) uint64 {
	h := uint64(14695981039346656037)
	for _, e := range live {
		h = (h ^ e.ID()) * 1099511628211
	}
	return h
}

// sharedGet looks cq up in the run-wide memo and, on a hit, records it in
// the exact tier so the next repeat skips canonicalization.
func (c *Checker) sharedGet(cq *canonQuery) *memoEntry {
	if c.Shared == nil {
		return nil
	}
	e := c.Shared.get(cq.key)
	if e != nil {
		c.Stats.Accel.MemoSharedHits++
		c.putExact(cq, e)
	}
	return e
}

func (c *Checker) memoPut(cq *canonQuery, e *memoEntry) {
	if cq == nil || c.Cfg.DisableMemo {
		return
	}
	c.putExact(cq, e)
	if c.Shared != nil {
		c.Shared.put(cq.key, e)
	}
}

func (c *Checker) putExact(cq *canonQuery, e *memoEntry) {
	if c.exact == nil || len(c.exact) >= exactMemoCap {
		c.exact = make(map[uint64]*exactEntry)
	}
	c.exact[exactKey(cq.live)] = &exactEntry{cq: cq, e: e}
}

// guessFromEqualities walks top-level conjunctions collecting var == const
// bindings. Returns ok=false on a visible conflict between bindings, which
// is itself a strong UNSAT hint but not proof (so we fall through).
func (c *Checker) guessFromEqualities(constraints []*bv.Expr) (map[string]uint64, bool) {
	env := map[string]uint64{}
	ok := true
	var visit func(e *bv.Expr)
	visit = func(e *bv.Expr) {
		switch e.Op {
		case bv.OpAnd:
			if e.Width == 1 {
				visit(e.Args[0])
				visit(e.Args[1])
			}
		case bv.OpEq:
			a, b := e.Args[0], e.Args[1]
			if a.Op == bv.OpConst {
				a, b = b, a
			}
			if a.Op == bv.OpVar && b.Op == bv.OpConst {
				if old, seen := env[a.Name]; seen && old != b.Val {
					ok = false
					return
				}
				env[a.Name] = b.Val
			}
		case bv.OpVar:
			if e.Width == 1 {
				env[e.Name] = 1
			}
		case bv.OpNot:
			if e.Args[0].Op == bv.OpVar && e.Width == 1 {
				env[e.Args[0].Name] = 0
			}
		}
	}
	for _, e := range constraints {
		visit(e)
	}
	return env, ok
}

// varInfo accumulates per-variable facts from top-level conjuncts.
type varInfo struct {
	width    int
	lo, hi   uint64 // inclusive bounds
	eq       uint64
	hasEq    bool
	excluded map[uint64]bool
}

// probeBounds collects per-variable equalities, disequalities and unsigned
// bounds from top-level conjuncts. When the collected facts contradict
// each other the set is UNSAT without search (conflict=true) — every fact
// comes from a conjunct that must hold, so a per-variable contradiction is
// proof, not heuristic. Otherwise it proposes the smallest in-bounds,
// non-excluded value for each variable; the caller re-checks the proposal
// against every constraint, so the witness side stays a pure guesser.
func (c *Checker) probeBounds(constraints []*bv.Expr) (env map[string]uint64, conflict bool) {
	infos := map[string]*varInfo{}
	get := func(v *bv.Expr) *varInfo {
		in, ok := infos[v.Name]
		if !ok {
			in = &varInfo{width: v.Width, hi: bv.Mask(v.Width), excluded: map[uint64]bool{}}
			infos[v.Name] = in
		}
		return in
	}
	var visit func(e *bv.Expr, neg bool)
	visit = func(e *bv.Expr, neg bool) {
		switch e.Op {
		case bv.OpAnd:
			if e.Width == 1 && !neg {
				visit(e.Args[0], false)
				visit(e.Args[1], false)
			}
		case bv.OpNot:
			visit(e.Args[0], !neg)
		case bv.OpEq:
			a, b := e.Args[0], e.Args[1]
			if a.Op == bv.OpConst {
				a, b = b, a
			}
			if a.Op != bv.OpVar || b.Op != bv.OpConst {
				return
			}
			in := get(a)
			if neg {
				in.excluded[b.Val] = true
			} else {
				if in.hasEq && in.eq != b.Val {
					conflict = true
				}
				in.hasEq, in.eq = true, b.Val
			}
		case bv.OpUlt, bv.OpUle:
			a, b := e.Args[0], e.Args[1]
			strict := e.Op == bv.OpUlt
			switch {
			case a.Op == bv.OpVar && b.Op == bv.OpConst:
				in := get(a)
				if !neg { // a < c  or a <= c
					hi := b.Val
					if strict {
						if hi == 0 {
							conflict = true // a < 0: empty domain
							return
						}
						hi--
					}
					if hi < in.hi {
						in.hi = hi
					}
				} else { // !(a < c) => a >= c ; !(a <= c) => a > c
					lo := b.Val
					if !strict {
						if lo == bv.Mask(in.width) {
							conflict = true // a > max: lo+1 would wrap past the domain
							return
						}
						lo++
					}
					if lo > in.lo {
						in.lo = lo
					}
				}
			case a.Op == bv.OpConst && b.Op == bv.OpVar:
				in := get(b)
				if !neg { // c < b  or c <= b
					lo := a.Val
					if strict {
						if lo == bv.Mask(in.width) {
							conflict = true // max < b: lo+1 would wrap past the domain
							return
						}
						lo++
					}
					if lo > in.lo {
						in.lo = lo
					}
				} else { // !(c < b) => b <= c ; !(c <= b) => b < c
					hi := a.Val
					if strict {
						if hi == 0 {
							conflict = true // b < 0: empty domain
							return
						}
						hi--
					}
					if hi < in.hi {
						in.hi = hi
					}
				}
			}
		case bv.OpVar:
			if e.Width == 1 {
				in := get(e)
				v := uint64(1)
				if neg {
					v = 0
				}
				if in.hasEq && in.eq != v {
					conflict = true
				}
				in.hasEq, in.eq = true, v
			}
		}
	}
	for _, e := range constraints {
		visit(e, false)
	}
	if conflict {
		return nil, true
	}
	env = map[string]uint64{}
	for name, in := range infos {
		if in.hasEq {
			if in.eq < in.lo || in.eq > in.hi || in.excluded[in.eq] {
				return nil, true
			}
			env[name] = in.eq
			continue
		}
		if in.lo > in.hi {
			return nil, true
		}
		v := in.lo
		for in.excluded[v] && v < in.hi {
			v++
		}
		if in.excluded[v] {
			return nil, true // every value in [lo,hi] is excluded
		}
		// Clamp defensively: with the wrap guards above v cannot leave the
		// domain, and this keeps any future fact source from proposing a
		// witness past Mask(width).
		env[name] = v & bv.Mask(in.width)
	}
	return env, false
}

// completeModel extends a witness with explicit zero entries for every
// variable the constraints mention, so counterexamples always show the full
// relevant input assignment.
func completeModel(constraints []*bv.Expr, env map[string]uint64) map[string]uint64 {
	for _, e := range constraints {
		for _, name := range bv.Vars(e, nil) {
			if _, ok := env[name]; !ok {
				env[name] = 0
			}
		}
	}
	return env
}

func evalAll(constraints []*bv.Expr, env map[string]uint64) bool {
	for _, e := range constraints {
		if bv.Eval(e, env) != 1 {
			return false
		}
	}
	return true
}
