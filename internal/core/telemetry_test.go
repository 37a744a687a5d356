package core

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"p4assert/internal/progs"
	"p4assert/internal/telemetry"
)

// fabricSource returns the fabric corpus program — the subject the
// observability acceptance criteria name (it splits 12 ways).
func fabricSource(t *testing.T) string {
	t.Helper()
	p, err := progs.Get("fabric")
	if err != nil {
		t.Fatalf("progs.Get(fabric): %v", err)
	}
	return p.Source
}

func TestReportTelemetryPopulated(t *testing.T) {
	rep, err := VerifySource("fabric.p4", fabricSource(t), Options{O3: true, Slice: true, Parallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	tel := rep.Telemetry
	if tel == nil {
		t.Fatal("Report.Telemetry not populated")
	}
	var names []string
	for _, st := range tel.Stages {
		names = append(names, st.Name)
	}
	want := []string{"parse", "typecheck", "translate", "optimize", "slice", "execute"}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("stage names = %v, want %v", names, want)
	}
	for _, key := range []string{"paths", "instructions", "solver_queries", "assert_checks", "max_frontier", "submodels"} {
		if _, ok := tel.Counters[key]; !ok {
			t.Errorf("counter %q missing (have %v)", key, tel.Counters)
		}
	}
	if tel.Counters["paths"] != rep.Metrics.Paths {
		t.Errorf("paths counter = %d, metrics say %d", tel.Counters["paths"], rep.Metrics.Paths)
	}
	if tel.Counters["submodels"] != int64(rep.Submodels) {
		t.Errorf("submodels counter = %d, report says %d", tel.Counters["submodels"], rep.Submodels)
	}
}

func TestReportTelemetryJSONRoundTrip(t *testing.T) {
	rep, err := VerifySource("fabric.p4", fabricSource(t), Options{Parallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Telemetry == nil {
		t.Fatal("telemetry section lost in round trip")
	}
	if !reflect.DeepEqual(rep.Telemetry, back.Telemetry) {
		t.Fatalf("telemetry changed in round trip:\n  before %+v\n  after  %+v", rep.Telemetry, back.Telemetry)
	}
	if back.ParseTime != rep.ParseTime || back.CheckTime != rep.CheckTime {
		t.Fatalf("front-end durations lost: parse %v/%v check %v/%v",
			rep.ParseTime, back.ParseTime, rep.CheckTime, back.CheckTime)
	}
}

// ComparableJSON must erase how verification started (pre-parsed program
// vs source text — different stage lists) while keeping the
// deterministic work counters.
func TestComparableJSONDropsStagesKeepsCounters(t *testing.T) {
	src := fabricSource(t)
	fromSource, err := VerifySource("fabric.p4", src, Options{Parallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	prog, err := parseChecked(context.Background(), "fabric.p4", src, &Report{})
	if err != nil {
		t.Fatal(err)
	}
	preParsed, err := VerifyProgram(prog, Options{Parallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	a, err := fromSource.ComparableJSON()
	if err != nil {
		t.Fatal(err)
	}
	b, err := preParsed.ComparableJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("comparable reports differ:\n%s\n%s", a, b)
	}
	if !strings.Contains(string(a), `"counters"`) {
		t.Fatal("comparable report dropped the counters section")
	}
	if strings.Contains(string(a), `"stages"`) {
		t.Fatal("comparable report kept the stage list")
	}
}

// Each full query runs on a fresh solver and nothing races, so a
// sequential run's solver counters are a fixed function of the program.
// Only the wall time may differ between two runs.
func TestSolverCountersRepeatSequential(t *testing.T) {
	for _, name := range []string{"dapper", "fabric"} {
		p, err := progs.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		var runs [2]map[string]int64
		for i := range runs {
			rep, err := VerifySource(name+".p4", p.Source, Options{})
			if err != nil {
				t.Fatal(err)
			}
			runs[i] = rep.Telemetry.Solver
			delete(runs[i], "solver_wall_ns")
		}
		if runs[0]["sat_propagations"] == 0 {
			t.Errorf("%s: no SAT search recorded: %v", name, runs[0])
		}
		if !reflect.DeepEqual(runs[0], runs[1]) {
			t.Errorf("%s: solver counters differ between runs:\n  %v\n  %v", name, runs[0], runs[1])
		}
	}
}

// The acceptance criterion for the fabric trace: the span tree nests
// correctly under the 12-way parallel split — one span per submodel,
// each on its own lane, parented by the execute span and contained in
// its time window — and the submodel spans account (within 10%, here
// checked as containment plus a nonzero floor) for the execute span.
func TestSpanNestingFabricParallel(t *testing.T) {
	tr := telemetry.NewTrace()
	ctx := telemetry.WithTrace(context.Background(), tr)
	rep, err := VerifySourceCtx(ctx, "fabric.p4", fabricSource(t), Options{Parallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Submodels != 12 {
		t.Fatalf("fabric split into %d submodels, expected 12", rep.Submodels)
	}
	exec := tr.Find("execute")
	if exec == nil {
		t.Fatal("no execute span")
	}
	split := tr.Find("split")
	if split == nil || split.Parent != exec.ID {
		t.Fatalf("split span missing or not nested under execute: %+v", split)
	}
	lanes := map[int64]bool{}
	var subSum, total int64
	for _, sp := range tr.Spans() {
		if !strings.HasPrefix(sp.Name, "submodel[") {
			continue
		}
		if sp.Parent != exec.ID {
			t.Errorf("%s parented by %d, want execute (%d)", sp.Name, sp.Parent, exec.ID)
		}
		if lanes[sp.Lane] {
			t.Errorf("%s reuses lane %d", sp.Name, sp.Lane)
		}
		lanes[sp.Lane] = true
		if sp.Start.Before(exec.Start) || sp.EndTime().After(exec.EndTime()) {
			t.Errorf("%s [%v, %v] escapes execute [%v, %v]",
				sp.Name, sp.Start, sp.EndTime(), exec.Start, exec.EndTime())
		}
		subSum += sp.Duration().Nanoseconds()
	}
	if len(lanes) != 12 {
		t.Fatalf("got %d submodel spans, want 12", len(lanes))
	}
	total = exec.Duration().Nanoseconds()
	if subSum == 0 || total == 0 {
		t.Fatalf("zero durations: submodels %d, execute %d", subSum, total)
	}
	// With 4 workers the 12 spans overlap, so their sum may exceed the
	// execute span (up to 4x) but must at least approach it: if the sum
	// fell far below, spans would be losing time against the stage they
	// claim to decompose.
	if subSum < total/2 {
		t.Errorf("submodel spans sum to %dns, under half of execute's %dns", subSum, total)
	}
}

// memStore is a map-backed incr.Store for tests.
type memStore map[string][]byte

func (m memStore) GetBytes(k string) ([]byte, bool)  { b, ok := m[k]; return b, ok }
func (m memStore) PutBytes(k string, b []byte) error { m[k] = b; return nil }

// Reused submodels must appear in an incremental run's trace as cached
// spans — present, attributed, marked — not as gaps.
func TestIncrementalTraceCachedSpans(t *testing.T) {
	src := fabricSource(t)
	store := memStore{}
	ctx := context.Background()
	if _, _, err := VerifyIncrementalSource(ctx, "fabric.p4", "", src, Options{Parallel: 4}, store); err != nil {
		t.Fatal(err)
	}

	tr := telemetry.NewTrace()
	tctx := telemetry.WithTrace(ctx, tr)
	_, man, err := VerifyIncrementalSource(tctx, "fabric.p4", src, src, Options{Parallel: 4}, store)
	if err != nil {
		t.Fatal(err)
	}
	if man.Reused != man.Submodels {
		t.Fatalf("identical resubmission reused %d/%d submodels", man.Reused, man.Submodels)
	}
	cached := 0
	for _, sp := range tr.Spans() {
		if strings.HasPrefix(sp.Name, "submodel[") {
			if !sp.IsCached() {
				t.Errorf("%s not marked cached on a fully reused run", sp.Name)
			}
			cached++
		}
	}
	if cached != man.Submodels {
		t.Fatalf("trace has %d submodel spans, manifest says %d", cached, man.Submodels)
	}
}
