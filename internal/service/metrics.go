package service

// Prometheus exposition for the service: every Manager owns a
// telemetry.Registry fed by the job lifecycle (submission/terminal-state
// counters, per-technique job-latency histograms) and by each finished
// report's telemetry section (per-stage latency histograms, executor and
// solver work counters). Point-in-time figures (queue depth, running
// jobs, cache occupancy and hit counts) are refreshed from the live
// structures at scrape time.

import (
	"io"
	"runtime"
	"runtime/debug"
	"time"

	"p4assert/internal/core"
	"p4assert/internal/telemetry"
	"p4assert/internal/vcache"
)

// Registry returns the manager's metric registry, for embedding into a
// larger exposition or inspecting in tests.
func (m *Manager) Registry() *telemetry.Registry { return m.reg }

// registerBuildInfo exposes p4served_build_info: a constant-1 gauge
// whose labels identify the running binary (the standard Prometheus
// build-metadata idiom — join on it instead of scraping versions).
func (m *Manager) registerBuildInfo() {
	revision := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				revision = s.Value
			}
		}
	}
	m.reg.Gauge("p4served_build_info",
		"Build metadata of the running daemon; the value is always 1.",
		telemetry.L("go_version", runtime.Version()),
		telemetry.L("revision", revision)).Set(1)
}

// WriteMetrics renders the registry in Prometheus text exposition format
// (the GET /v1/metrics body), refreshing the point-in-time gauges first.
func (m *Manager) WriteMetrics(w io.Writer) error {
	m.mu.Lock()
	qInt, qBulk := int64(len(m.qInt)), int64(len(m.qBulk))
	running := m.running
	overloaded := int64(0)
	if m.overloadedLocked(time.Now()) {
		overloaded = 1
	}
	m.mu.Unlock()
	m.reg.Gauge("p4served_queue_depth", "Jobs waiting in the queue, both classes.").Set(qInt + qBulk)
	m.reg.Gauge("p4served_queue_depth_class", "Jobs waiting, by admission class.",
		telemetry.L("class", PriorityInteractive)).Set(qInt)
	m.reg.Gauge("p4served_queue_depth_class", "Jobs waiting, by admission class.",
		telemetry.L("class", PriorityBulk)).Set(qBulk)
	m.reg.Gauge("p4served_overloaded", "1 while the overload detector is shedding bulk work.").Set(overloaded)
	m.reg.Gauge("p4served_jobs_running", "Jobs currently executing on the worker pool.").Set(running)
	m.reg.Gauge("p4served_workers", "Worker-pool size.").Set(int64(m.cfg.Workers))
	m.reg.Gauge("p4served_uptime_seconds", "Seconds since the service started.").
		Set(int64(time.Since(m.started).Seconds()))
	if m.cfg.Store != nil {
		st := m.cfg.Store.Stats()
		m.reg.Gauge("p4served_store_jobs", "Job records in the durable store.").Set(int64(st.Jobs))
		m.reg.Gauge("p4served_store_appends", "WAL records appended since start.").Set(st.Appends)
		m.reg.Gauge("p4served_store_wal_records", "Records in the current WAL generation.").Set(st.WALRecords)
		m.reg.Gauge("p4served_store_snapshots", "Snapshot compactions since start.").Set(st.Snapshots)
		degraded := int64(0)
		if st.Degraded {
			degraded = 1
		}
		m.reg.Gauge("p4served_store_degraded", "1 after a WAL write failure disabled persistence.").Set(degraded)
	}
	if m.cfg.Cache != nil {
		m.scrapeCache("report", m.cfg.Cache.Stats())
	}
	if m.cfg.SubCache != nil {
		m.scrapeCache("submodel", m.cfg.SubCache.Stats())
	}
	return m.reg.WritePrometheus(w)
}

// scrapeCache mirrors a vcache counter snapshot into per-tier gauges.
// The cache keeps its own authoritative counters; gauges set at scrape
// time avoid double-counting while still exposing the running totals.
func (m *Manager) scrapeCache(tier string, cs vcache.Stats) {
	l := telemetry.L("tier", tier)
	m.reg.Gauge("p4served_vcache_hits", "Result-cache hits since start, by tier.", l).Set(cs.Hits)
	m.reg.Gauge("p4served_vcache_misses", "Result-cache misses since start, by tier.", l).Set(cs.Misses)
	m.reg.Gauge("p4served_vcache_entries", "Live result-cache entries, by tier.", l).Set(int64(cs.Entries))
	m.reg.Gauge("p4served_vcache_evictions", "Result-cache LRU evictions since start, by tier.", l).Set(cs.Evictions)
	m.reg.Gauge("p4served_vcache_corrupt", "Corrupt disk entries quarantined since start, by tier.", l).Set(cs.Corrupt)
}

// recordJobMetrics feeds a job's terminal state into the registry.
// Called from finish (outside m.mu is not required; all instruments are
// internally synchronized).
func (m *Manager) recordJobMetrics(j *job, state JobState, cacheHit bool, latency time.Duration) {
	switch state {
	case StateDone:
		m.reg.Counter("p4served_jobs_done_total", "Jobs finished successfully.").Inc()
		if cacheHit {
			m.reg.Counter("p4served_cache_hits_total", "Jobs answered from the report cache.").Inc()
		} else {
			m.reg.Histogram("p4served_job_duration_seconds",
				"End-to-end job execution latency (cache hits excluded), by technique.",
				telemetry.L("technique", j.technique)).Observe(latency)
		}
	case StateFailed:
		m.reg.Counter("p4served_jobs_failed_total", "Jobs that ended in error or timeout.").Inc()
	case StateCancelled:
		m.reg.Counter("p4served_jobs_cancelled_total", "Jobs cancelled by the client or shutdown.").Inc()
	}
}

// recordReportMetrics feeds a fresh (non-cache-hit) report's telemetry
// section into the registry: stage latencies and work counters.
func (m *Manager) recordReportMetrics(j *job, rep *core.Report) {
	if rep == nil || rep.Telemetry == nil {
		return
	}
	for _, st := range rep.Telemetry.Stages {
		m.reg.Histogram("p4served_stage_duration_seconds",
			"Pipeline stage wall time, by stage.",
			telemetry.L("stage", st.Name)).Observe(time.Duration(st.DurationNS))
	}
	l := telemetry.L("technique", j.technique)
	add := func(name, help, key string) {
		m.reg.Counter(name, help, l).Add(rep.Telemetry.Counters[key])
	}
	add("p4served_paths_explored_total", "Completed symbolic execution paths, by technique.", "paths")
	add("p4served_states_forked_total", "Symbolic state forks, by technique.", "forks")
	add("p4served_instructions_total", "Model instructions interpreted, by technique.", "instructions")
	add("p4served_assert_checks_total", "Assertion checks evaluated, by technique.", "assert_checks")
	add("p4served_solver_queries_total", "Solver satisfiability queries, by technique.", "solver_queries")
	add("p4served_solver_full_total", "Queries that reached bit-blasting (layer 3), by technique.", "solver_full")
	add("p4served_bitblast_vars_total", "SAT variables allocated by bit-blasting, by technique.", "bitblast_vars")
	add("p4served_bitblast_clauses_total", "CNF clauses emitted by bit-blasting, by technique.", "bitblast_clauses")
	// The solver memo and search family. These come from the
	// non-comparable telemetry section: observability-only figures (memo
	// state, raw search effort) that never enter report equivalence.
	acc := func(name, help, key string) {
		m.reg.Counter(name, help, l).Add(rep.Telemetry.Solver[key])
	}
	acc("p4assert_solver_memo_hits_total", "Queries answered by the normalized query memo, by technique.", "memo_hits")
	acc("p4assert_solver_memo_shared_hits_total", "Memo hits served by the run-wide shared tier, by technique.", "memo_shared_hits")
	acc("p4assert_solver_sat_decisions_total", "CDCL decisions, by technique.", "sat_decisions")
	acc("p4assert_solver_sat_propagations_total", "CDCL unit propagations, by technique.", "sat_propagations")
	acc("p4assert_solver_sat_conflicts_total", "CDCL conflicts, by technique.", "sat_conflicts")
	acc("p4assert_solver_sat_learned_total", "CDCL learned clauses retained, by technique.", "sat_learned")
	if j.subReused > 0 || j.subExecuted > 0 {
		m.reg.Counter("p4served_submodels_reused_total",
			"Submodel verdicts replayed from the submodel cache.").Add(int64(j.subReused))
		m.reg.Counter("p4served_submodels_executed_total",
			"Submodels symbolically executed (cache misses).").Add(int64(j.subExecuted))
	}
}
