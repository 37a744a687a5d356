package main

import (
	"fmt"
	"os"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"time"

	"p4assert/internal/core"
	"p4assert/internal/progs"
	"p4assert/internal/rules"
	"p4assert/internal/whippersnapper"
)

// sizes holds the parameters of the in-process workloads. The full sizes
// keep one verdict well above a millisecond, so that timer resolution,
// scheduling jitter and single GC pauses do not decide a percentile; the
// smoke sizes only prove the plumbing in tests.
type sizes struct {
	ExploreTables int
	RulesPerTable int
}

var (
	fullSizes  = sizes{ExploreTables: 12, RulesPerTable: 40}
	smokeSizes = sizes{ExploreTables: 4, RulesPerTable: 4}
)

// input is one distinct verification request of an in-process workload
// together with the answer it must give.
type input struct {
	Name   string
	Source string
	Opts   core.Options
	// WantPaths, when > 0, is the exact completed-path count.
	WantPaths int64
	// WantViolations lists the assertion IDs that must be violated; empty
	// means the program must verify.
	WantViolations []int
	// Replay asks for every counterexample to be replayed concretely.
	Replay bool
	// Share is the input's number of verdicts per round of the timed
	// loop; 0 counts as 1.
	Share int
}

// inputs builds the distinct requests of an in-process workload. The
// seed does not enter: these workloads are fixed by their parameters.
func inputs(workload string, sz sizes) ([]input, error) {
	switch workload {
	case "explore":
		cfg := whippersnapper.Default(sz.ExploreTables)
		return []input{{
			Name:      fmt.Sprintf("whippersnapper-%dt", cfg.Tables),
			Source:    whippersnapper.Generate(cfg),
			WantPaths: cfg.PathCount(),
		}}, nil
	case "rules":
		cfg := whippersnapper.Default(2)
		cfg.RulesPerTable = sz.RulesPerTable
		return []input{{
			Name:      fmt.Sprintf("whippersnapper-%dt-%dr", cfg.Tables, cfg.RulesPerTable),
			Source:    whippersnapper.Generate(cfg),
			Opts:      core.Options{Rules: whippersnapper.GenerateRules(cfg)},
			WantPaths: cfg.PathCount(),
		}}, nil
	case "solve":
		// Rounds of 1 dcp4, 3 fabric and 1 dapper verdicts: p50 falls in
		// the middle of fabric's class and p90 in the middle of dapper's,
		// where each class is densest. In equal thirds p50 fell where
		// fabric's slow and dapper's fast verdicts overlap, and moved more
		// than twice as much between runs as p90.
		var out []input
		for _, name := range []string{"dcp4", "fabric", "dapper"} {
			p, err := progs.Get(name)
			if err != nil {
				return nil, err
			}
			in := input{Name: name, Source: p.Source, WantViolations: p.ExpectedViolations, Replay: true, Share: 1}
			if name == "fabric" {
				in.Share = 3
			}
			if p.Rules != "" {
				rs, err := rules.Parse(p.Rules)
				if err != nil {
					return nil, fmt.Errorf("%s rules: %w", name, err)
				}
				in.Opts.Rules = rs
			}
			out = append(out, in)
		}
		return out, nil
	}
	return nil, fmt.Errorf("unknown in-process workload %q", workload)
}

// check compares a report with the input's expected answer.
func (in input) check(rep *core.Report) error {
	if rep.Exhausted {
		return fmt.Errorf("%s: exploration exhausted", in.Name)
	}
	if in.WantPaths > 0 && rep.Metrics.Paths != in.WantPaths {
		return fmt.Errorf("%s: %d paths, want %d", in.Name, rep.Metrics.Paths, in.WantPaths)
	}
	got := violatedIDs(rep)
	want := append([]int{}, in.WantViolations...)
	sort.Ints(want)
	if !reflect.DeepEqual(got, want) {
		return fmt.Errorf("%s: violated assertions %v, want %v", in.Name, got, want)
	}
	if in.Replay {
		if err := core.ReplayAll(rep); err != nil {
			return fmt.Errorf("%s: %w", in.Name, err)
		}
	}
	return nil
}

func violatedIDs(rep *core.Report) []int {
	ids := []int{}
	seen := map[int]bool{}
	for _, v := range rep.Violations {
		if !seen[v.AssertID] {
			seen[v.AssertID] = true
			ids = append(ids, v.AssertID)
		}
	}
	sort.Ints(ids)
	return ids
}

// verifyFunc produces the checked report of one verdict; n numbers the
// verdicts of a loop.
type verifyFunc func(n int, in input) (*core.Report, error)

func untraced(_ int, in input) (*core.Report, error) {
	return core.VerifySource(in.Name+".p4", in.Source, in.Opts)
}

// loopStats describes one timed loop.
type loopStats struct {
	Lat       []time.Duration // latencies of the correct verdicts
	Attempted int
	Failed    int
	Elapsed   time.Duration
	Errors    []string
}

func (s *loopStats) fail(err error) {
	s.Failed++
	if len(s.Errors) < 5 {
		s.Errors = append(s.Errors, err.Error())
	}
}

// perSecond is the rate of correct verdicts over the loop's wall time.
func (s *loopStats) perSecond() float64 {
	return ratio(float64(len(s.Lat)), s.Elapsed.Seconds())
}

// runLoop calls verify on the inputs in rounds, each input Share times a
// round, until d has passed. Each latency runs from the call to the
// returned report; the check that follows is outside it but inside the
// loop's wall time.
func runLoop(ins []input, d time.Duration, verify verifyFunc) loopStats {
	var round []input
	for _, in := range ins {
		for k := 0; k < max(in.Share, 1); k++ {
			round = append(round, in)
		}
	}
	var s loopStats
	start := time.Now()
	for n := 0; time.Since(start) < d; n++ {
		in := round[n%len(round)]
		s.Attempted++
		t0 := time.Now()
		rep, err := verify(n, in)
		lat := time.Since(t0)
		if err == nil {
			err = in.check(rep)
		}
		if err != nil {
			s.fail(err)
			continue
		}
		s.Lat = append(s.Lat, lat)
	}
	s.Elapsed = time.Since(start)
	return s
}

// setupInproc generates the inputs and makes one checked, untimed pass
// over them, reps times; it returns the last inputs and each set-up time.
func setupInproc(workload string, sz sizes, reps int) ([]input, []time.Duration, error) {
	var ins []input
	var times []time.Duration
	for r := 0; r < reps; r++ {
		t0 := time.Now()
		var err error
		ins, err = inputs(workload, sz)
		if err != nil {
			return nil, nil, err
		}
		if err := warmUp(ins); err != nil {
			return nil, nil, err
		}
		times = append(times, time.Since(t0))
	}
	return ins, times, nil
}

// warmUp verifies and checks each input once.
func warmUp(ins []input) error {
	for _, in := range ins {
		rep, err := untraced(0, in)
		if err == nil {
			err = in.check(rep)
		}
		if err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	return nil
}

// peakRSSMB reads the high-water resident set size of a process from
// /proc, in MB.
func peakRSSMB(pid string) (float64, error) {
	data, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}
