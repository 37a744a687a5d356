package service

import (
	"bytes"
	"context"
	"net/http/httptest"
	"strings"
	"testing"

	"p4assert/internal/telemetry"
	"p4assert/internal/vcache"
)

// requiredFamilies are the metric families the CI smoke job asserts on
// (scripts/service-smoke.sh); removing one is a monitoring break, not a
// refactor. Keep the two lists in sync.
var requiredFamilies = []string{
	"p4served_jobs_submitted_total",
	"p4served_jobs_done_total",
	"p4served_job_duration_seconds",
	"p4served_stage_duration_seconds",
	"p4served_paths_explored_total",
	"p4served_solver_queries_total",
	"p4assert_solver_memo_hits_total",
	"p4assert_solver_sat_decisions_total",
	"p4served_queue_depth",
	"p4served_workers",
}

func TestMetricsExposition(t *testing.T) {
	cache, err := vcache.New(16, "")
	if err != nil {
		t.Fatal(err)
	}
	m := New(Config{Workers: 2, Cache: cache})
	defer m.Shutdown(context.Background())

	req := corpusRequest(t, "fabric")
	req.Options = Techniques{Parallel: 4}
	st, err := m.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if st = waitTerminal(t, m, st.ID); st.State != StateDone {
		t.Fatalf("job ended %s: %s", st.State, st.Error)
	}

	var buf bytes.Buffer
	if err := m.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()

	if err := telemetry.LintPrometheus(strings.NewReader(text)); err != nil {
		t.Fatalf("exposition fails lint: %v\n%s", err, text)
	}
	for _, fam := range requiredFamilies {
		if !strings.Contains(text, "# TYPE "+fam+" ") {
			t.Errorf("family %s missing from exposition", fam)
		}
	}
	if !strings.Contains(text, `technique="parallel"`) {
		t.Errorf("per-technique labels missing:\n%s", text)
	}
	if !strings.Contains(text, `stage="execute"`) {
		t.Errorf("per-stage labels missing:\n%s", text)
	}
	if !strings.Contains(text, `p4served_vcache_entries{tier="report"}`) {
		t.Errorf("cache tier gauges missing:\n%s", text)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	m := New(Config{Workers: 1})
	defer m.Shutdown(context.Background())
	srv := httptest.NewServer(Handler(m))
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("GET /v1/metrics: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	if err := telemetry.LintPrometheus(resp.Body); err != nil {
		t.Fatalf("endpoint output fails lint: %v", err)
	}
}

// Scrapes race against the job lifecycle in production (Prometheus polls
// on its own clock); under -race this doubles as the torn-read audit for
// the registry and the live gauges WriteMetrics refreshes.
func TestMetricsConcurrentScrape(t *testing.T) {
	cache, err := vcache.New(16, "")
	if err != nil {
		t.Fatal(err)
	}
	m := New(Config{Workers: 2, Cache: cache})
	defer m.Shutdown(context.Background())

	stop := make(chan struct{})
	scraped := make(chan struct{})
	go func() {
		defer close(scraped)
		for {
			select {
			case <-stop:
				return
			default:
			}
			var buf bytes.Buffer
			if err := m.WriteMetrics(&buf); err != nil {
				t.Errorf("scrape: %v", err)
				return
			}
		}
	}()

	req := corpusRequest(t, "fabric")
	req.Options = Techniques{Parallel: 2}
	var ids []string
	for i := 0; i < 4; i++ {
		st, err := m.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}
	for _, id := range ids {
		waitTerminal(t, m, id)
	}
	close(stop)
	<-scraped
}

// Metric names are a monitoring contract: a scrape before any job runs
// must already expose the gauges (counters appear with their first
// increment, which Prometheus handles; gauges must not flap).
func TestMetricsStableBeforeTraffic(t *testing.T) {
	m := New(Config{Workers: 1})
	defer m.Shutdown(context.Background())
	var buf bytes.Buffer
	if err := m.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	for _, g := range []string{"p4served_queue_depth", "p4served_jobs_running", "p4served_workers"} {
		if !strings.Contains(buf.String(), "# TYPE "+g+" gauge") {
			t.Errorf("gauge %s absent on first scrape:\n%s", g, buf.String())
		}
	}
}
