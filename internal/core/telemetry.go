package core

import "p4assert/internal/sym"

// ReportTelemetry is the observability section of a Report: the stage
// wall-time breakdown and the named work counters, in a stable external
// form. p4bench embeds it in BENCH json and the service's clients read it
// from report JSON, so names here are part of the wire format.
type ReportTelemetry struct {
	// Stages lists the pipeline stages that ran, in order, with wall
	// times. Stage presence depends on how verification started (parse
	// and typecheck only appear for source-text runs) and on the
	// technique matrix (optimize/slice only when enabled), so consumers
	// must key by name, not index.
	Stages []ReportStage `json:"stages,omitempty"`
	// Counters names the executor and solver work counters. All values
	// are deterministic functions of the verified program and options —
	// identical between cold parallel runs and incremental replays —
	// which lets ComparableJSON keep them while dropping wall times.
	Counters map[string]int64 `json:"counters,omitempty"`
	// Solver names the solver's memo and search counters (memo hits, raw
	// SAT search effort, solver wall time). A sequential run repeats them
	// exactly, apart from the wall time, but in a parallel run the
	// submodels share one memo and which of them hits it first depends on
	// scheduling. So ComparableJSON drops them along with the stage wall
	// times.
	Solver map[string]int64 `json:"solver,omitempty"`
}

// ReportStage is one pipeline stage's wall time.
type ReportStage struct {
	Name       string `json:"name"`
	DurationNS int64  `json:"duration_ns"`
}

// fillTelemetry populates rep.Telemetry from the stage durations and
// metrics already recorded in rep. Called at the end of every cold and
// incremental pipeline run, after rep.Metrics is final.
func fillTelemetry(rep *Report, opts Options, fromSource bool) {
	t := &ReportTelemetry{}
	add := func(name string, d int64) {
		t.Stages = append(t.Stages, ReportStage{Name: name, DurationNS: d})
	}
	if fromSource {
		add("parse", rep.ParseTime.Nanoseconds())
		add("typecheck", rep.CheckTime.Nanoseconds())
	}
	add("translate", rep.TranslateTime.Nanoseconds())
	if opts.O3 || opts.Opt {
		add("optimize", rep.OptimizeTime.Nanoseconds())
	}
	if opts.Slice {
		add("slice", rep.SliceTime.Nanoseconds())
	}
	add("execute", rep.ExecTime.Nanoseconds())
	t.Counters = metricCounters(rep.Metrics)
	if opts.Parallel > 0 {
		t.Counters["submodels"] = int64(rep.Submodels)
	}
	t.Solver = accelCounters(rep.Metrics)
	rep.Telemetry = t
}

// accelCounters flattens the solver's memo and search stats. These are
// the p4assert_solver_* telemetry family, excluded from report
// comparability (see ReportTelemetry).
func accelCounters(m sym.Metrics) map[string]int64 {
	a := m.Solver.Accel
	return map[string]int64{
		"memo_hits":        a.MemoHits,
		"memo_shared_hits": a.MemoSharedHits,
		"sat_decisions":    a.Decisions,
		"sat_propagations": a.Propagations,
		"sat_conflicts":    a.Conflicts,
		"sat_learned":      a.LearnedClauses,
		"solver_wall_ns":   a.WallNS,
	}
}

// metricCounters flattens executor metrics into the named counter map.
// Only counters that are deterministic for a given (program, options)
// pair belong here; cache-dependent figures (submodels reused vs
// executed) would break the cold-vs-incremental report equivalence the
// difftest corpus checks.
func metricCounters(m sym.Metrics) map[string]int64 {
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
