// Package sym is the symbolic execution engine for verification models
// (internal/model): the role KLEE plays in the paper's prototype (§3.3).
//
// Every path through the model is explored. Packet header fields and other
// inputs are symbolic bitvectors (internal/bv); branch conditions accumulate
// into per-path constraint sets whose feasibility the solver stack
// (internal/solver) decides eagerly, pruning infeasible paths. Assertion
// checks ask the solver for an input violating the assertion under the path
// condition; a satisfying model becomes the reported counterexample packet.
//
// Exploration is depth-first and backtracking: one Execute runs every path
// on a single mutable state and never copies it per branch. A fork decides
// all its branches' feasibility up front, enters the first and pushes a
// choice that records the state at the fork: the frames and call depths,
// and the lengths of the path condition, trace and assertion log, which a
// path only appends to. While a choice is open, store assignments go into
// an undo log. When a path ends, the newest choice undoes the log, truncates
// the slices, restores the frames and enters its next branch. The store is
// a slice indexed by each global's position in Program.Globals and the
// call depths a slice indexed by function, both resolved from names once
// per Execute; the per-hint draw counters are shared copy-on-write with
// the open choices and copied only when a path draws again.
//
// The executor also implements the paper's measurement hooks: executed
// instruction counts (§5.5 metric ii) and path statistics.
package sym

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"p4assert/internal/bv"
	"p4assert/internal/model"
	"p4assert/internal/solver"
)

// Options configures an execution.
type Options struct {
	// Ctx, when non-nil, cancels exploration early: Execute returns
	// Ctx.Err() as soon as cancellation is observed (polled together with
	// Deadline). A nil Ctx means no cancellation.
	Ctx context.Context
	// MaxCallDepth bounds recursive function activation (parser loops such
	// as MRI's). Paths exceeding it terminate with BoundExceeded.
	// 0 means the default of 8.
	MaxCallDepth int
	// MaxPaths aborts exploration after this many completed paths
	// (0 = unlimited). The result is then marked Exhausted.
	MaxPaths int64
	// Deadline, when non-zero, aborts exploration at that time. It is
	// polled between path segments once 4096 instructions have run since
	// the last poll, so a run overshoots it by at most that many
	// instructions plus the segment in progress.
	Deadline time.Time
	// Opt enables executor-level optimizations analogous to KLEE's
	// --optimize flag: counterexample-model reuse to skip solver calls and
	// path-constraint deduplication.
	Opt bool
	// InitialConstraints seeds every path with extra assumptions; the
	// submodel parallelization (internal/submodel) uses this.
	InitialConstraints []model.Expr
	// SkipChecks disables assertion checking (used by slicing criteria
	// probes); violations are then never reported.
	SkipChecks bool
	// CollectTests records one concrete input assignment per completed
	// path (the paper's §6 "ongoing work": systematic test-case
	// generation, p4pktgen's role). Results appear in Result.Tests.
	CollectTests bool
	// Solver configures the solver; the zero value enables the memo,
	// which never changes reported results.
	Solver solver.Config
	// SolverMemo, when non-nil, is a run-wide normalized memo shared
	// across executors (the parallel submodels of one verification run),
	// the second lookup tier behind the Checker's exact tier. Without it
	// only exact repeats within this execution hit the memo.
	SolverMemo *solver.Memo
}

// PathTest is one generated test case: a concrete input driving the
// program down one specific path.
type PathTest struct {
	// Inputs assigns every symbolic input the path constrains; variables
	// not listed are free (zero works).
	Inputs map[string]uint64
	// Trace lists the fork decisions of the path.
	Trace []string
	// Outcome is the expected observable behaviour of the path under
	// Inputs, computed by concretizing the final symbolic state. It is the
	// symbolic engine's half of the differential oracle: an independent
	// concrete run (internal/interp) of the same inputs must reproduce it
	// exactly.
	Outcome PathOutcome
}

// PathOutcome is the externally observable result of one execution path
// under a concrete input: the facts the differential oracle compares
// between the symbolic engine and the concrete interpreter.
type PathOutcome struct {
	// Halted reports parser rejection.
	Halted bool
	// Forward is the final value of the $forward flag (0 if the model
	// defines none).
	Forward uint64
	// Egress is the final value of the *.egress_spec global (0 if none).
	Egress uint64
	// Failures lists the assertion IDs whose checks evaluate false on this
	// path under Inputs, sorted and deduplicated.
	Failures []int
}

// Digest renders the outcome canonically for comparison and reporting.
func (o PathOutcome) Digest() string {
	return fmt.Sprintf("halt=%t fwd=0x%x egress=0x%x fail=%v",
		o.Halted, o.Forward, o.Egress, o.Failures)
}

// NormalizeFailures sorts and deduplicates a failure list in place,
// returning the normalized slice. Both engines apply it before digesting so
// repeated checks of one assertion (parser loops) compare equal.
func NormalizeFailures(ids []int) []int {
	sort.Ints(ids)
	out := ids[:0]
	for i, id := range ids {
		if i == 0 || id != ids[i-1] {
			out = append(out, id)
		}
	}
	return out
}

// EgressGlobal returns the name of the model's egress-port global
// (suffix ".egress_spec"), or "" when the model defines none.
func EgressGlobal(p *model.Program) string {
	for _, g := range p.Globals {
		if strings.HasSuffix(g.Name, ".egress_spec") {
			return g.Name
		}
	}
	return ""
}

// Violation aggregates the failures of one assertion across paths.
type Violation struct {
	AssertID int
	Info     *model.AssertInfo
	// Count is how many paths violated the assertion.
	Count int64
	// Model is a satisfying input assignment from the first violating
	// path: the counterexample packet.
	Model map[string]uint64
	// Trace is the fork trace of the first violating path.
	Trace []string
}

// Metrics reports execution effort.
type Metrics struct {
	Paths            int64 // completed paths
	KilledInfeasible int64 // paths pruned by the solver
	BoundExceeded    int64 // paths cut by the call-depth bound
	Instructions     int64 // model statements executed
	Forks            int64
	AssertChecks     int64 // assertion check sites evaluated
	// MaxFrontier is the peak size of the DFS frontier: the running path
	// plus the fork branches still pending at the widest point of
	// exploration.
	MaxFrontier int64
	Solver      solver.Stats
}

// Result is the outcome of Execute.
type Result struct {
	Violations []*Violation
	Metrics    Metrics
	// Tests holds one generated test case per completed path when
	// Options.CollectTests is set.
	Tests []PathTest
	// Exhausted reports that MaxPaths or Deadline stopped exploration
	// before all paths were covered.
	Exhausted bool
}

// Violated reports whether the given assertion ID failed on any path.
func (r *Result) Violated(id int) bool {
	for _, v := range r.Violations {
		if v.AssertID == id {
			return true
		}
	}
	return false
}

// pollEvery is how many instructions may run between two polls of
// Options.Deadline and Options.Ctx.
const pollEvery = 4096

// frame is one activation record; block frames are nested statement lists
// within the same function activation. fn is the function's slot in
// state.depth.
type frame struct {
	fn      int
	body    []model.Stmt
	ip      int
	isBlock bool
}

// state is the path state. One Execute owns a single state: it runs one
// path at a time, and a choice rewinds it to a fork to run the fork's next
// branch.
type state struct {
	// store holds each global's value, indexed by its slot (its position
	// in Program.Globals).
	store    []*bv.Expr
	pc       []*bv.Expr
	frames   []frame
	entryIdx int
	halted   bool // parser reject: skip remaining pipeline blocks
	trace    []string
	// depth counts the live activations of each function, indexed by
	// function slot, for the call-depth bound.
	depth []int
	// draws numbers fresh symbolic values along this path per hint,
	// indexed by hint slot, so the k-th MakeSymbolic of a given hint always
	// gets the same name ("hint#k") regardless of exploration order or what
	// other hints were drawn in between. Per-hint (rather than path-global)
	// numbering makes the names portable across program versions: when two
	// composed models extract the same field (internal/equiv), their k-th
	// draws share one symbolic variable — the same packet byte.
	draws []int
	// drawsShared marks draws as shared with an open choice: the next draw
	// copies it before counting.
	drawsShared bool
	// lastModel caches a satisfying assignment for pc (Opt mode).
	lastModel map[string]uint64
	// checks records every assertion condition evaluated along the path
	// (CollectTests only): concretizing them under the test inputs yields
	// the path's expected assertion verdicts.
	checks []pathCheck
}

// pathCheck is one AssertCheck evaluation site on a path.
type pathCheck struct {
	id   int
	cond *bv.Expr
}

// branch is one feasible successor of a fork, decided when the fork is
// reached: what entering it adds to the state at the fork.
type branch struct {
	cond    *bv.Expr          // conjunct appended to pc, or nil
	witness map[string]uint64 // the path's lastModel on entry
	label   string            // trace entry, or ""
	fn      int
	body    []model.Stmt
}

// choice is a fork with branches still to run: the state as it was at the
// fork (slices by length, since the path only appends to them after it)
// and the branches left.
type choice struct {
	frames    []frame
	depth     []int
	entryIdx  int
	halted    bool
	pcLen     int
	traceLen  int
	checksLen int
	writesLen int
	draws     []int
	lastModel map[string]uint64
	branches  []branch
	next      int // index in branches of the next branch to enter
}

// write is one undo-log entry: a store slot and its value before an
// assignment.
type write struct {
	slot int
	old  *bv.Expr
}

type executor struct {
	p       *model.Program
	opts    Options
	ctx     *bv.Context
	chk     *solver.Checker
	met     Metrics
	byID    map[int]*Violation
	ordered []*Violation
	tests   []PathTest
	// slots maps each global's name to its slot in state.store.
	slots map[string]int
	// funcs maps each function's name to its slot in bodies and
	// state.depth.
	funcs  map[string]int
	bodies [][]model.Stmt
	// hints maps each MakeSymbolic hint to its slot in state.draws,
	// assigned when the hint is first drawn; drawn[h][k-1] caches the
	// variable of hint slot h's k-th draw.
	hints map[string]int
	drawn [][]*bv.Expr
	// labels caches each Fork's trace entries ("selector=label").
	labels map[*model.Fork][]string
	// egress caches the model's egress-port global name (CollectTests).
	egress string

	// choices is the DFS stack of forks with branches left; entries past
	// its length keep their buffers for reuse. pending counts the
	// branches not yet entered across all choices. writes logs store
	// assignments while any choice is open, so backtracking can undo them.
	choices  []choice
	pending  int64
	writes   []write
	branches []branch // run's result buffer, valid until the next run
}

// Execute symbolically runs the program over all paths.
func Execute(p *model.Program, opts Options) (*Result, error) {
	if opts.MaxCallDepth == 0 {
		opts.MaxCallDepth = 8
	}
	ctx := bv.NewContext()
	ex := &executor{
		p:      p,
		opts:   opts,
		ctx:    ctx,
		chk:    solver.New(ctx),
		byID:   map[int]*Violation{},
		slots:  make(map[string]int, len(p.Globals)),
		funcs:  make(map[string]int, len(p.Funcs)),
		hints:  map[string]int{},
		labels: map[*model.Fork][]string{},
	}
	ex.chk.Cfg = opts.Solver
	ex.chk.Shared = opts.SolverMemo
	if opts.CollectTests {
		ex.egress = EgressGlobal(p)
	}

	for name, f := range p.Funcs {
		ex.funcs[name] = len(ex.bodies)
		ex.bodies = append(ex.bodies, f.Body)
	}
	st := &state{
		store: make([]*bv.Expr, len(p.Globals)),
		depth: make([]int, len(ex.bodies)),
	}
	for i, g := range p.Globals {
		ex.slots[g.Name] = i
		if g.Symbolic {
			st.store[i] = ctx.Var(g.Name, g.Width)
		} else {
			st.store[i] = ctx.Const(g.Width, g.Init)
		}
	}
	for _, c := range opts.InitialConstraints {
		v, err := ex.eval(c, st)
		if err != nil {
			return nil, err
		}
		st.pc = append(st.pc, ex.ctx.NonZero(v))
	}
	if len(st.pc) > 0 {
		res := ex.chk.Check(st.pc)
		if !res.Sat {
			// The submodel's assumption is itself infeasible: no paths.
			return &Result{Metrics: ex.met}, nil
		}
		st.lastModel = res.Model
	}

	ex.met.MaxFrontier = 1
	exhausted := false
	nextPoll := int64(0) // poll before the first path too
	for {
		if opts.MaxPaths > 0 && ex.met.Paths >= opts.MaxPaths {
			exhausted = true
			break
		}
		if ex.met.Instructions >= nextPoll {
			nextPoll = ex.met.Instructions + pollEvery
			if !opts.Deadline.IsZero() && time.Now().After(opts.Deadline) {
				exhausted = true
				break
			}
			if opts.Ctx != nil {
				if err := opts.Ctx.Err(); err != nil {
					return nil, err
				}
			}
		}
		brs, err := ex.run(st)
		if err != nil {
			return nil, err
		}
		if len(brs) == 0 {
			// The path ended: resume the newest choice's next branch.
			if !ex.backtrack(st) {
				break
			}
			continue
		}
		if len(brs) > 1 {
			ex.pushChoice(st, brs[1:])
		}
		ex.enter(st, brs[0])
		// The frontier is the running path plus the branches pending.
		if n := ex.pending + 1; n > ex.met.MaxFrontier {
			ex.met.MaxFrontier = n
		}
	}
	ex.met.Solver = ex.chk.Stats
	return &Result{Violations: ex.ordered, Metrics: ex.met, Tests: ex.tests, Exhausted: exhausted}, nil
}

// pushChoice records st at a fork together with the fork's branches after
// the one st enters first.
func (ex *executor) pushChoice(st *state, rest []branch) {
	n := len(ex.choices)
	if n < cap(ex.choices) {
		ex.choices = ex.choices[:n+1]
	} else {
		ex.choices = append(ex.choices, choice{})
	}
	st.drawsShared = st.draws != nil
	c := &ex.choices[n]
	c.frames = append(c.frames[:0], st.frames...)
	c.depth = append(c.depth[:0], st.depth...)
	c.entryIdx, c.halted = st.entryIdx, st.halted
	c.pcLen, c.traceLen, c.checksLen = len(st.pc), len(st.trace), len(st.checks)
	c.writesLen = len(ex.writes)
	c.draws, c.lastModel = st.draws, st.lastModel
	c.branches = append(c.branches[:0], rest...)
	c.next = 0
	ex.pending += int64(len(rest))
}

// backtrack rewinds st to the newest choice's fork and enters its next
// branch, popping the choice after its last one. It reports false when no
// choice is left: exploration is complete.
func (ex *executor) backtrack(st *state) bool {
	n := len(ex.choices)
	if n == 0 {
		return false
	}
	c := &ex.choices[n-1]
	for i := len(ex.writes) - 1; i >= c.writesLen; i-- {
		st.store[ex.writes[i].slot] = ex.writes[i].old
	}
	ex.writes = ex.writes[:c.writesLen]
	st.pc = st.pc[:c.pcLen]
	st.trace = st.trace[:c.traceLen]
	st.checks = st.checks[:c.checksLen]
	st.frames = append(st.frames[:0], c.frames...)
	copy(st.depth, c.depth)
	st.entryIdx, st.halted = c.entryIdx, c.halted
	st.draws, st.drawsShared = c.draws, c.draws != nil
	st.lastModel = c.lastModel
	br := c.branches[c.next]
	c.next++
	if c.next == len(c.branches) {
		ex.choices = ex.choices[:n-1]
	}
	ex.pending--
	ex.enter(st, br)
	return true
}

// enter applies br to st: it appends br's conjunct and trace entry, takes
// its witness and enters its body.
func (ex *executor) enter(st *state, br branch) {
	if br.cond != nil {
		st.pc = append(st.pc, br.cond)
	}
	st.lastModel = br.witness
	if br.label != "" {
		st.trace = append(st.trace, br.label)
	}
	ex.pushBody(st, br.fn, br.body)
}

// set assigns v to a store slot, logging the old value while a choice may
// need it back.
func (ex *executor) set(st *state, slot int, v *bv.Expr) {
	if len(ex.choices) > 0 {
		ex.writes = append(ex.writes, write{slot, st.store[slot]})
	}
	st.store[slot] = v
}

// draw returns the variable of hint slot h's k-th draw at the given width,
// formatting its name ("hint#k") only on first use.
func (ex *executor) draw(h int, hint string, k, width int) *bv.Expr {
	for len(ex.drawn) <= h {
		ex.drawn = append(ex.drawn, nil)
	}
	vs := ex.drawn[h]
	for len(vs) < k {
		vs = append(vs, nil)
	}
	ex.drawn[h] = vs
	if v := vs[k-1]; v != nil && v.Width == width {
		return v
	}
	// New, or redrawn at another width, which Var rejects.
	v := ex.ctx.Var(fmt.Sprintf("%s#%d", hint, k), width)
	vs[k-1] = v
	return v
}

// forkLabels returns f's trace entries, one per branch.
func (ex *executor) forkLabels(f *model.Fork) []string {
	if ls, ok := ex.labels[f]; ok {
		return ls
	}
	ls := make([]string, len(f.Branches))
	for i := range ls {
		label := ""
		if i < len(f.Labels) {
			label = f.Labels[i]
		}
		ls[i] = f.Selector + "=" + label
	}
	ex.labels[f] = ls
	return ls
}

// collectTest solves the completed path's constraints into one concrete
// input assignment and concretizes the path's observable outcome under it.
func (ex *executor) collectTest(st *state) {
	var inputs map[string]uint64
	if st.lastModel != nil && allSat(st.pc, st.lastModel) {
		inputs = st.lastModel
	} else {
		res := ex.chk.Check(st.pc)
		if !res.Sat {
			return // cannot happen for eagerly-pruned paths
		}
		inputs = res.Model
	}
	cp := make(map[string]uint64, len(inputs))
	for k, v := range inputs {
		cp[k] = v
	}
	out := PathOutcome{Halted: st.halted}
	if i, ok := ex.slots[model.ForwardFlag]; ok {
		out.Forward = bv.Eval(st.store[i], cp)
	}
	if i, ok := ex.slots[ex.egress]; ok {
		out.Egress = bv.Eval(st.store[i], cp)
	}
	for _, c := range st.checks {
		if bv.Eval(c.cond, cp) == 0 {
			out.Failures = append(out.Failures, c.id)
		}
	}
	out.Failures = NormalizeFailures(out.Failures)
	ex.tests = append(ex.tests, PathTest{Inputs: cp, Trace: append([]string(nil), st.trace...), Outcome: out})
}

func allSat(pc []*bv.Expr, env map[string]uint64) bool {
	for _, c := range pc {
		if bv.Eval(c, env) != 1 {
			return false
		}
	}
	return true
}

// run executes st until the path completes, dies, or forks. At a fork it
// returns the feasible branches, in exploration order, without entering
// any; the result is valid until the next call.
func (ex *executor) run(st *state) ([]branch, error) {
	for {
		// Refill frames from the entry sequence.
		for len(st.frames) == 0 {
			if st.entryIdx >= len(ex.p.Entry) {
				ex.met.Paths++
				if ex.opts.CollectTests {
					ex.collectTest(st)
				}
				return nil, nil // path complete
			}
			name := ex.p.Entry[st.entryIdx]
			st.entryIdx++
			if st.halted && name != "$checks" {
				continue // rejected packets skip the pipeline blocks
			}
			fi, ok := ex.funcs[name]
			if !ok {
				return nil, fmt.Errorf("sym: entry function %s not found", name)
			}
			st.frames = append(st.frames, frame{fn: fi, body: ex.bodies[fi]})
		}

		fr := &st.frames[len(st.frames)-1]
		if fr.ip >= len(fr.body) {
			if !fr.isBlock {
				st.depth[fr.fn]--
			}
			st.frames = st.frames[:len(st.frames)-1]
			continue
		}
		stmt := fr.body[fr.ip]
		fr.ip++
		ex.met.Instructions++

		switch s := stmt.(type) {
		case *model.Assign:
			v, err := ex.eval(s.RHS, st)
			if err != nil {
				return nil, err
			}
			i, ok := ex.slots[s.LHS]
			if !ok {
				return nil, fmt.Errorf("sym: assignment to unknown global %s", s.LHS)
			}
			ex.set(st, i, ex.ctx.Resize(v, ex.p.Globals[i].Width))

		case *model.MakeSymbolic:
			i, ok := ex.slots[s.Var]
			if !ok {
				return nil, fmt.Errorf("sym: make_symbolic of unknown global %s", s.Var)
			}
			h, ok := ex.hints[s.Hint]
			if !ok {
				h = len(ex.hints)
				ex.hints[s.Hint] = h
			}
			if st.drawsShared || h >= len(st.draws) {
				d := make([]int, len(ex.hints))
				copy(d, st.draws)
				st.draws, st.drawsShared = d, false
			}
			st.draws[h]++
			ex.set(st, i, ex.draw(h, s.Hint, st.draws[h], ex.p.Globals[i].Width))

		case *model.If:
			cond, err := ex.eval(s.Cond, st)
			if err != nil {
				return nil, err
			}
			cond = ex.ctx.NonZero(cond)
			if cond.IsTrue() {
				ex.pushBody(st, fr.fn, s.Then)
				continue
			}
			if cond.IsFalse() {
				ex.pushBody(st, fr.fn, s.Else)
				continue
			}
			ex.met.Forks++
			// Both sides are decided here, then before else, so the solver
			// sees the same queries in the same order whichever side runs.
			out := ex.branches[:0]
			if add, w, ok := ex.decide(st, cond); ok {
				out = append(out, branch{cond: add, witness: w, fn: fr.fn, body: s.Then})
			}
			if add, w, ok := ex.decide(st, ex.ctx.Not(cond)); ok {
				out = append(out, branch{cond: add, witness: w, fn: fr.fn, body: s.Else})
			}
			ex.branches = out
			return out, nil

		case *model.Fork:
			ex.met.Forks++
			labels := ex.forkLabels(s)
			out := ex.branches[:0]
			for i, body := range s.Branches {
				out = append(out, branch{witness: st.lastModel, label: labels[i], fn: fr.fn, body: body})
			}
			ex.branches = out
			return out, nil

		case *model.Call:
			fi, ok := ex.funcs[s.Func]
			if !ok {
				return nil, fmt.Errorf("sym: call to unknown function %s", s.Func)
			}
			if st.depth[fi] >= ex.opts.MaxCallDepth {
				// Loop bound hit (recursive parser): the execution is
				// truncated, so the path is killed outright — its final
				// state is not meaningful and is not checked, as with a
				// KLEE state killed early.
				ex.met.BoundExceeded++
				return nil, nil
			}
			st.depth[fi]++
			st.frames = append(st.frames, frame{fn: fi, body: ex.bodies[fi]})

		case *model.Assume:
			v, err := ex.eval(s.Cond, st)
			if err != nil {
				return nil, err
			}
			cond := ex.ctx.NonZero(v)
			if cond.IsTrue() {
				continue
			}
			if !ex.constrain(st, cond) {
				return nil, nil // assumption unsatisfiable: silently drop path
			}
			continue

		case *model.AssertCheck:
			if ex.opts.SkipChecks {
				continue
			}
			ex.met.AssertChecks++
			v, err := ex.eval(s.Cond, st)
			if err != nil {
				return nil, err
			}
			cond := ex.ctx.NonZero(v)
			if ex.opts.CollectTests {
				st.checks = append(st.checks, pathCheck{id: s.ID, cond: cond})
			}
			if cond.IsTrue() {
				continue
			}
			neg := ex.ctx.Not(cond)
			res := ex.chk.Check(st.query(neg))
			if res.Sat {
				ex.recordViolation(s.ID, res.Model, st.trace)
				// Continue exploring the passing side, if any, so later
				// assertions on this path are still checked.
				if !ex.constrain(st, cond) {
					return nil, nil
				}
				continue
			}
			// Assertion holds on every input reaching here.

		case *model.Return:
			// Pop block frames up to and including the function frame.
			for len(st.frames) > 0 {
				top := st.frames[len(st.frames)-1]
				st.frames = st.frames[:len(st.frames)-1]
				if !top.isBlock {
					st.depth[top.fn]--
					break
				}
			}

		case *model.Exit:
			// P4 exit: terminate all blocks of the current pipeline stage.
			st.frames = st.frames[:0]
			clear(st.depth)

		case *model.Halt:
			// Parser reject: skip the pipeline, keep final checks.
			st.frames = st.frames[:0]
			clear(st.depth)
			st.halted = true

		case *model.TraceNote:
			st.trace = append(st.trace, s.Label)

		case *model.ResetDraws:
			// Restart per-hint input numbering: subsequent draws re-yield
			// the hash-consed variables of the first sequence, which is how
			// composed differential models share one symbolic packet.
			st.draws, st.drawsShared = nil, false

		default:
			return nil, fmt.Errorf("sym: unknown statement %T", stmt)
		}
	}
}

// pushBody enters a nested statement list within the same function.
func (ex *executor) pushBody(st *state, fn int, body []model.Stmt) {
	if len(body) == 0 {
		return
	}
	st.frames = append(st.frames, frame{fn: fn, body: body, isBlock: true})
}

// constrain adds cond to the path condition, reporting false if the path
// becomes infeasible.
func (ex *executor) constrain(st *state, cond *bv.Expr) bool {
	add, w, ok := ex.decide(st, cond)
	if ok {
		ex.enter(st, branch{cond: add, witness: w})
	}
	return ok
}

// decide is constrain without changing the path: it reports whether the
// path stays feasible under cond, the conjunct to append to pc for it (nil
// when none is needed) and the path's witness afterwards.
func (ex *executor) decide(st *state, cond *bv.Expr) (add *bv.Expr, witness map[string]uint64, ok bool) {
	if cond.IsTrue() {
		return nil, st.lastModel, true
	}
	if cond.IsFalse() {
		ex.met.KilledInfeasible++
		return nil, nil, false
	}
	if ex.opts.Opt {
		// Counterexample reuse: if the previous model still satisfies the
		// new constraint, the path is SAT without consulting the solver.
		if st.lastModel != nil && bv.Eval(cond, st.lastModel) == 1 {
			return cond, st.lastModel, true
		}
		// Deduplicate syntactically repeated constraints.
		for _, c := range st.pc {
			if c == cond {
				return nil, st.lastModel, true
			}
		}
	}
	res := ex.chk.Check(st.query(cond))
	if !res.Sat {
		ex.met.KilledInfeasible++
		return nil, nil, false
	}
	return cond, res.Model, true
}

// query returns pc with e appended, for one solver call, without extending
// the path: e goes into the slot past len(pc), which nothing reads (the
// solver retains no query slice).
func (st *state) query(e *bv.Expr) []*bv.Expr {
	q := append(st.pc, e)
	st.pc = q[:len(q)-1] // keep any capacity append grew
	return q
}

func (ex *executor) recordViolation(id int, m map[string]uint64, trace []string) {
	v, ok := ex.byID[id]
	if !ok {
		var info *model.AssertInfo
		if id >= 0 && id < len(ex.p.Asserts) {
			info = ex.p.Asserts[id]
		}
		v = &Violation{
			AssertID: id,
			Info:     info,
			Model:    m,
			Trace:    append([]string(nil), trace...),
		}
		ex.byID[id] = v
		ex.ordered = append(ex.ordered, v)
	}
	v.Count++
}

// FormatModel renders a counterexample assignment deterministically.
func FormatModel(m map[string]uint64) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s=0x%x", k, m[k])
	}
	return strings.Join(parts, " ")
}
