package sym_test

import (
	"testing"
	"time"

	"p4assert/internal/core"
	"p4assert/internal/sym"
	"p4assert/internal/whippersnapper"
)

// TestDeadlineStopsMidRun checks that the deadline is polled by elapsed
// instructions, not only when the instruction count happens to hit a
// multiple of the poll interval: whippersnapper-10 (1536 paths, several
// times the budget on any host the suite runs on) must stop early. The
// model stays this small on purpose: in a larger one the count crosses
// enough multiples that a poll on exact multiples would fire by chance.
func TestDeadlineStopsMidRun(t *testing.T) {
	cfg := whippersnapper.Default(10)
	m, err := core.BuildModel("whippersnapper.p4", whippersnapper.Generate(cfg), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	const budget = time.Millisecond
	start := time.Now()
	res, err := sym.Execute(m, sym.Options{Deadline: start.Add(budget)})
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	total := cfg.PathCount()
	if !res.Exhausted && elapsed <= budget {
		t.Skipf("all %d paths ran within the %v budget (%v): nothing to stop", total, budget, elapsed)
	}
	if !res.Exhausted || res.Metrics.Paths >= total {
		t.Fatalf("exhausted=%v after %d of %d paths in %v, want a stop before all paths with a %v budget",
			res.Exhausted, res.Metrics.Paths, total, elapsed, budget)
	}
}
