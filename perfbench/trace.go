package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"sync"
	"time"

	"p4assert/internal/core"
	"p4assert/internal/p4"
	"p4assert/internal/solver"
	"p4assert/internal/sym"
	"p4assert/internal/translate"
)

// layerMetricNames lists every per-layer metric of a traced run. A layer
// that is not on a workload's path reports 0 there.
var layerMetricNames = []struct{ name, unit string }{
	{"p4.parse_ms", "ms"},
	{"p4.check_ms", "ms"},
	{"translate.ms", "ms"},
	{"translate.model_stmts", "count"},
	{"sym.self_ms", "ms"},
	{"sym.paths", "count"},
	{"sym.forks", "count"},
	{"sym.instructions", "count"},
	{"sym.max_frontier", "count"},
	{"sym.infeasible_ratio", "1"},
	{"solver.ms", "ms"},
	{"solver.queries", "count"},
	{"solver.quick_ratio", "1"},
	{"solver.memo_hit_ratio", "1"},
	{"solver.session_reuse_hits", "count"},
	{"solver.portfolio_session_win_ratio", "1"},
	{"bitblast.vars", "count"},
	{"bitblast.clauses", "count"},
	{"sat.decisions", "count"},
	{"sat.propagations", "count"},
	{"sat.conflicts", "count"},
	{"sat.learned", "count"},
	{"interp.replay_us", "us"},
	{"go.alloc_mb_per_verdict", "MB"},
	{"go.gc_per_verdict", "count"},
	{"submodel.count", "count"},
	{"submodel.worst_share", "1"},
	{"service.queue_wait_ms", "ms"},
	{"service.run_ms", "ms"},
	{"service.client_overhead_ms", "ms"},
	{"service.hit_ms", "ms"},
	{"service.incr_ms", "ms"},
	{"service.cold_ms", "ms"},
	{"service.shed", "count"},
	{"vcache.hit_ratio", "1"},
	{"incr.reuse_ratio", "1"},
	{"store.appends_per_job", "count"},
	{"store.snapshots", "count"},
	{"trace.overhead_ratio", "1"},
}

// span is one timed call at a layer boundary. Spans of one verdict share
// Verdict; Parent 0 marks the verdict's root.
type span struct {
	Verdict int    `json:"verdict"`
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) start(verdict, parent int, name string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		Verdict: verdict, ID: len(t.spans) + 1, Parent: parent, Name: name,
		StartNS: time.Since(t.origin).Nanoseconds(),
	})
	return len(t.spans)
}

// end closes span id and returns its duration.
func (t *tracer) end(id int) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	sp := &t.spans[id-1]
	sp.EndNS = time.Since(t.origin).Nanoseconds()
	return time.Duration(sp.EndNS - sp.StartNS)
}

func (t *tracer) write(path string) error {
	if path == "" {
		return nil
	}
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// layerSample is what one traced verdict spent in each layer.
type layerSample struct {
	Parse, Check, Translate, Execute time.Duration
	Stmts                            int
	Metrics                          sym.Metrics
}

// composed verifies one input by calling the layers in core's pipeline
// order — p4.Parse, (*p4.Program).Check, translate.Translate,
// sym.Execute — with a span around each call. It mirrors core.VerifySource
// for default options plus rules; crossCheck proves it still does.
func composed(tr *tracer, n int, in input) (*core.Report, layerSample, error) {
	var ls layerSample
	o := in.Opts
	o.Rules = nil
	if o != (core.Options{}) {
		return nil, ls, fmt.Errorf("%s: the traced pipeline covers default options only", in.Name)
	}
	root := tr.start(n, 0, "verdict")
	defer tr.end(root)

	sp := tr.start(n, root, "p4.parse")
	prog, err := p4.Parse(in.Name+".p4", in.Source)
	ls.Parse = tr.end(sp)
	if err != nil {
		return nil, ls, err
	}
	sp = tr.start(n, root, "p4.check")
	err = prog.Check()
	ls.Check = tr.end(sp)
	if err != nil {
		return nil, ls, err
	}
	sp = tr.start(n, root, "translate")
	m, err := translate.Translate(prog, translate.Options{Rules: in.Opts.Rules})
	ls.Translate = tr.end(sp)
	if err != nil {
		return nil, ls, err
	}
	ls.Stmts = m.NumStmts()
	sp = tr.start(n, root, "sym.execute")
	res, err := sym.Execute(m, sym.Options{SolverMemo: solver.NewMemo(solver.SharedMemoCap)})
	ls.Execute = tr.end(sp)
	if err != nil {
		return nil, ls, err
	}
	ls.Metrics = res.Metrics
	core.CanonicalizeViolations(res.Violations)
	return &core.Report{
		Violations: res.Violations,
		Metrics:    res.Metrics,
		Model:      m,
		Asserts:    m.Asserts,
		Exhausted:  res.Exhausted,
	}, ls, nil
}

// counters names the deterministic work counters of a run the way
// core.Report.Telemetry.Counters does for a sequential run.
func counters(m sym.Metrics) map[string]int64 {
	return map[string]int64{
		"paths":              m.Paths,
		"killed_infeasible":  m.KilledInfeasible,
		"bound_exceeded":     m.BoundExceeded,
		"instructions":       m.Instructions,
		"forks":              m.Forks,
		"assert_checks":      m.AssertChecks,
		"max_frontier":       m.MaxFrontier,
		"solver_queries":     m.Solver.Queries,
		"solver_quick_sat":   m.Solver.QuickSAT,
		"solver_quick_unsat": m.Solver.QuickUNSAT,
		"solver_full":        m.Solver.FullQueries,
		"bitblast_vars":      m.Solver.BitblastVars,
		"bitblast_clauses":   m.Solver.BitblastClauses,
	}
}

// crossCheck fails unless the traced composition reproduces the verdict
// (violations with their counterexamples) and every deterministic counter
// of core.VerifySource on each input, so the benchmark's copy of the
// pipeline order cannot drift from core's.
func crossCheck(ins []input) error {
	for _, in := range ins {
		want, err := untraced(0, in)
		if err != nil {
			return err
		}
		got, _, err := composed(newTracer(), 0, in)
		if err != nil {
			return err
		}
		wv, err := want.ViolationsJSON()
		if err != nil {
			return err
		}
		gv, err := got.ViolationsJSON()
		if err != nil {
			return err
		}
		if !bytes.Equal(wv, gv) || want.Exhausted != got.Exhausted {
			return fmt.Errorf("cross-check %s: traced verdict differs from core.VerifySource", in.Name)
		}
		if want.Telemetry == nil {
			return fmt.Errorf("cross-check %s: core.VerifySource reported no telemetry", in.Name)
		}
		if !reflect.DeepEqual(want.Telemetry.Counters, counters(got.Metrics)) {
			return fmt.Errorf("cross-check %s: traced counters %v, core.VerifySource %v",
				in.Name, counters(got.Metrics), want.Telemetry.Counters)
		}
	}
	return nil
}

// tracedInproc is the per-layer run of an in-process workload: a cross-
// check, an untraced half for the runtime counters and the tracing
// overhead, a traced half for the layer split, then the replay cost.
func tracedInproc(cfg config) (*result, error) {
	ins, _, err := setupInproc(cfg.Workload, cfg.Sizes, 1)
	if err != nil {
		return nil, err
	}
	if err := crossCheck(ins); err != nil {
		return nil, err
	}
	half := seconds(cfg.Seconds / 2)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	plain := runLoop(ins, half, untraced)
	runtime.ReadMemStats(&after)

	tr := newTracer()
	var samples []layerSample
	traced := runLoop(ins, half, func(n int, in input) (*core.Report, error) {
		rep, ls, err := composed(tr, n, in)
		if err == nil {
			samples = append(samples, ls)
		}
		return rep, err
	})
	if err := tr.write(cfg.SpansOut); err != nil {
		return nil, err
	}
	replayUS, err := replayCost(ins)
	if err != nil {
		return nil, err
	}

	m := layerMetrics(samples)
	verdicts := float64(plain.Attempted)
	m.set("go.alloc_mb_per_verdict", ratio(float64(after.TotalAlloc-before.TotalAlloc)/(1<<20), verdicts), "MB")
	m.set("go.gc_per_verdict", ratio(float64(after.NumGC-before.NumGC), verdicts), "count")
	m.set("interp.replay_us", replayUS, "us")
	m.set("trace.overhead_ratio", ratio(plain.perSecond()-traced.perSecond(), plain.perSecond()), "1")
	errs := append(plain.Errors, traced.Errors...)
	return &result{
		Correct:   plain.Failed+traced.Failed == 0,
		Attempted: plain.Attempted + traced.Attempted,
		Failed:    plain.Failed + traced.Failed,
		Metrics:   m,
		Errors:    errs,
	}, nil
}

// layerMetrics averages the traced samples per verdict; ratios are taken
// over the sums.
func layerMetrics(samples []layerSample) metrics {
	m := metrics{}
	var parse, check, trans, self, solverNS time.Duration
	var stmts, paths, forks, instr, frontier, killed float64
	var queries, quick, memo, reuse, sessWins, freshWins float64
	var vars, clauses, dec, prop, confl, learned float64
	for _, s := range samples {
		sm := s.Metrics
		a := sm.Solver.Accel
		parse += s.Parse
		check += s.Check
		trans += s.Translate
		self += s.Execute - time.Duration(a.WallNS)
		solverNS += time.Duration(a.WallNS)
		stmts += float64(s.Stmts)
		paths += float64(sm.Paths)
		forks += float64(sm.Forks)
		instr += float64(sm.Instructions)
		frontier += float64(sm.MaxFrontier)
		killed += float64(sm.KilledInfeasible)
		queries += float64(sm.Solver.Queries)
		quick += float64(sm.Solver.QuickSAT + sm.Solver.QuickUNSAT)
		memo += float64(a.MemoHits)
		reuse += float64(a.SessionReuseHits)
		sessWins += float64(a.PortfolioSessionWins)
		freshWins += float64(a.PortfolioFreshWins)
		vars += float64(sm.Solver.BitblastVars)
		clauses += float64(sm.Solver.BitblastClauses)
		dec += float64(a.Decisions)
		prop += float64(a.Propagations)
		confl += float64(a.Conflicts)
		learned += float64(a.LearnedClauses)
	}
	n := float64(len(samples))
	perMS := func(d time.Duration) float64 { return ratio(ms(d), n) }
	m.set("p4.parse_ms", perMS(parse), "ms")
	m.set("p4.check_ms", perMS(check), "ms")
	m.set("translate.ms", perMS(trans), "ms")
	m.set("translate.model_stmts", ratio(stmts, n), "count")
	m.set("sym.self_ms", perMS(self), "ms")
	m.set("sym.paths", ratio(paths, n), "count")
	m.set("sym.forks", ratio(forks, n), "count")
	m.set("sym.instructions", ratio(instr, n), "count")
	m.set("sym.max_frontier", ratio(frontier, n), "count")
	m.set("sym.infeasible_ratio", ratio(killed, forks), "1")
	m.set("solver.ms", perMS(solverNS), "ms")
	m.set("solver.queries", ratio(queries, n), "count")
	m.set("solver.quick_ratio", ratio(quick, queries), "1")
	m.set("solver.memo_hit_ratio", ratio(memo, queries), "1")
	m.set("solver.session_reuse_hits", ratio(reuse, n), "count")
	m.set("solver.portfolio_session_win_ratio", ratio(sessWins, sessWins+freshWins), "1")
	m.set("bitblast.vars", ratio(vars, n), "count")
	m.set("bitblast.clauses", ratio(clauses, n), "count")
	m.set("sat.decisions", ratio(dec, n), "count")
	m.set("sat.propagations", ratio(prop, n), "count")
	m.set("sat.conflicts", ratio(confl, n), "count")
	m.set("sat.learned", ratio(learned, n), "count")
	return m
}

// replayCost times core.ReplayAll on each input's counterexamples and
// returns microseconds per replayed counterexample (0 when no input has
// any). It runs outside every timed loop.
func replayCost(ins []input) (float64, error) {
	var total time.Duration
	replayed := 0
	for _, in := range ins {
		rep, err := untraced(0, in)
		if err != nil {
			return 0, err
		}
		if len(rep.Violations) == 0 {
			continue
		}
		const reps = 20
		t0 := time.Now()
		for i := 0; i < reps; i++ {
			if err := core.ReplayAll(rep); err != nil {
				return 0, fmt.Errorf("%s: %w", in.Name, err)
			}
		}
		total += time.Since(t0)
		replayed += reps * len(rep.Violations)
	}
	return ratio(float64(total.Nanoseconds())/1e3, float64(replayed)), nil
}
