// Command p4bench regenerates the paper's evaluation figures and tables:
//
//	-exp fig9a..fig9d    Fig. 9 performance sweeps (no optimizations)
//	-exp fig10a..fig10d  Fig. 10 sweeps × {Original, Parallel, O3, Opt}
//	-exp table1          Table 1 expressiveness matrix over the corpus
//	-exp table2          Table 2 per-program technique gains
//	-exp combined        §5.5 combined techniques on Dapper
//	-exp bugs            §5.1 bug-finding runs
//	-exp incremental     edit one action of the largest corpus program and
//	                     measure incremental vs cold re-verification
//	                     (writes BENCH_incremental.json)
//	-exp testgen         generate the fabric test suite and measure batch
//	                     replay throughput (writes BENCH_testgen.json)
//	-exp cluster         verify fabric through loopback worker clusters of
//	                     1/2/4 nodes — cold, cache-warm and incremental —
//	                     vs the single-process parallel pipeline
//	                     (writes BENCH_cluster.json)
//	-exp all             everything above
//
// Absolute numbers differ from the paper's (different machine, engine and
// decade); the shapes — growth trends, which technique wins where — are
// the reproduction target (see EXPERIMENTS.md).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"p4assert/internal/bench"
)

func main() {
	var (
		exp     = flag.String("exp", "all", "experiment id (fig9a-d, fig10a-d, table1, table2, combined, bugs, incremental, testgen, cluster, all)")
		full    = flag.Bool("full", false, "use the paper's full parameter ranges (slow)")
		repeats = flag.Int("repeats", 3, "repetitions for wall-clock rows (table2/combined/incremental)")
		smoke   = flag.Bool("smoke", false, "CI smoke mode: single repetition, still enforcing result invariants")
	)
	flag.Parse()
	if *smoke {
		*repeats = 1
	}

	ids := strings.Split(*exp, ",")
	if *exp == "all" {
		ids = []string{"bugs", "table1", "fig9a", "fig9b", "fig9c", "fig9d",
			"fig10a", "fig10b", "fig10c", "fig10d", "table2", "combined", "incremental", "testgen", "cluster"}
	}
	for _, id := range ids {
		if err := run(strings.TrimSpace(id), *full, *repeats); err != nil {
			fmt.Fprintf(os.Stderr, "p4bench: %s: %v\n", id, err)
			os.Exit(1)
		}
	}
}

var sweepOf = map[string]bench.Sweep{
	"a": bench.SweepTables, "b": bench.SweepAssertions,
	"c": bench.SweepRules, "d": bench.SweepActions,
}

var panelLabel = map[bench.Sweep]string{
	bench.SweepTables:     "Number of tables",
	bench.SweepAssertions: "Number of assertions",
	bench.SweepRules:      "Number of rules per table",
	bench.SweepActions:    "Number of actions per table",
}

func run(id string, full bool, repeats int) error {
	switch {
	case strings.HasPrefix(id, "fig9"):
		s, ok := sweepOf[strings.TrimPrefix(id, "fig9")]
		if !ok {
			return fmt.Errorf("unknown experiment")
		}
		pts, err := bench.Figure9(s, bench.DefaultXs(s, full))
		if err != nil {
			return err
		}
		fmt.Println(bench.RenderPoints(
			fmt.Sprintf("Figure 9(%s): verification time vs %s (no optimizations)",
				strings.TrimPrefix(id, "fig9"), panelLabel[s]),
			panelLabel[s], pts))
		return nil

	case strings.HasPrefix(id, "fig10"):
		s, ok := sweepOf[strings.TrimPrefix(id, "fig10")]
		if !ok {
			return fmt.Errorf("unknown experiment")
		}
		series, err := bench.Figure10(s, bench.DefaultXs(s, full))
		if err != nil {
			return err
		}
		fmt.Println(bench.RenderSeries(
			fmt.Sprintf("Figure 10(%s): speed-up techniques vs %s",
				strings.TrimPrefix(id, "fig10"), panelLabel[s]),
			panelLabel[s], series))
		return nil

	case id == "table2":
		rows, err := bench.Table2(repeats)
		if err != nil {
			return err
		}
		fmt.Println(bench.RenderTable2(rows))
		return nil

	case id == "combined":
		timeRed, instrRed, err := bench.Combined(repeats)
		if err != nil {
			return err
		}
		fmt.Printf("§5.5 combined techniques on Dapper (constraints + parallel + O3 + Opt):\n")
		fmt.Printf("  verification time reduced by %.2f%% (paper: 81.76%%)\n", timeRed)
		fmt.Printf("  instructions reduced by %.2f%% (paper: 89.25%%)\n\n", instrRed)
		return nil

	case id == "bugs":
		results, err := bench.BugFinding()
		if err != nil {
			return err
		}
		fmt.Println("§5.1 bug finding:")
		for _, r := range results {
			status := "FOUND"
			if !r.AllFound {
				status = "MISSED"
			}
			fmt.Printf("  %-40s %-6s in %.3fs (%d violation(s))\n", r.Program, status, r.Seconds, r.Violations)
			for _, f := range r.Found {
				fmt.Printf("      violated: %s\n", f)
			}
		}
		fmt.Println()
		return nil

	case id == "incremental":
		res, err := bench.Incremental(repeats, nil)
		if err != nil {
			return err
		}
		data, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile("BENCH_incremental.json", append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("Incremental re-verification (%s, %d lines; edit %s):\n",
			res.Program, res.ProgramLines, res.EditedUnit)
		for _, r := range res.Runs {
			fmt.Printf("  workers=%d  cold %.3fs  incremental %.3fs  speedup %.1fx\n",
				r.Workers, r.ColdSeconds, r.IncrementalSeconds, r.Speedup)
		}
		fmt.Printf("  %d/%d submodel verdicts reused; byte-identical report: %v\n",
			res.Reused, res.Submodels, res.ByteIdentical)
		fmt.Printf("  wrote BENCH_incremental.json\n\n")
		if !res.ByteIdentical {
			return fmt.Errorf("incremental report diverged from the cold run")
		}
		return nil

	case id == "testgen":
		res, err := bench.Testgen(0, 0)
		if err != nil {
			return err
		}
		data, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile("BENCH_testgen.json", append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("Test-packet oracle throughput (%s, %d cases, %d workers):\n",
			res.Program, res.Cases, res.Workers)
		fmt.Printf("  %d packets in %.3fs — %.2fM packets/sec (%d VM instructions)\n",
			res.Packets, res.Seconds, res.PacketsPerSecond/1e6, res.Instructions)
		fmt.Printf("  wrote BENCH_testgen.json\n\n")
		return nil

	case id == "cluster":
		res, err := bench.Cluster(repeats, nil)
		if err != nil {
			return err
		}
		data, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile("BENCH_cluster.json", append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("Distributed verification cluster (%s, %d lines, %d submodels; baseline %.3fs):\n",
			res.Program, res.ProgramLines, res.Submodels, res.BaselineSeconds)
		for _, r := range res.Runs {
			fmt.Printf("  workers=%d  cold %.3fs  warm %.3fs  incremental %.3fs  speedup %.2fx  steals %d\n",
				r.Workers, r.ColdSeconds, r.WarmSeconds, r.IncrementalSeconds, r.Speedup, r.Steals)
			for _, n := range r.Nodes {
				fmt.Printf("      %-8s dispatched %-4d cache hits %-4d (ratio %.2f)\n",
					n.Name, n.Dispatched, n.CacheHits, n.CacheHitRatio)
			}
		}
		fmt.Printf("  byte-identical reports: %v\n", res.ByteIdentical)
		fmt.Printf("  wrote BENCH_cluster.json\n\n")
		if !res.ByteIdentical {
			return fmt.Errorf("cluster report diverged from the single-process run")
		}
		return nil

	case id == "table1":
		entries, err := bench.Table1()
		if err != nil {
			return err
		}
		fmt.Println("Table 1: assertion-language properties per application:")
		for _, e := range entries {
			fmt.Printf("  %-40s (%.3fs)\n", e.Program, e.Seconds)
			for i, a := range e.Assertions {
				verdict := "holds"
				if e.Violated[i] {
					verdict = "VIOLATED"
				}
				fmt.Printf("      %-60s %s\n", a, verdict)
			}
		}
		fmt.Println()
		return nil
	}
	return fmt.Errorf("unknown experiment")
}
