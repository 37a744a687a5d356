// Command perfbench is the repository's benchmark. It measures how long
// the verifier takes to reach a checked verdict, end to end, on four
// workloads that stress different layers:
//
//	explore  whippersnapper, 12 tables: symbolic path enumeration (sym)
//	rules    whippersnapper, 2 tables × 40 rules: the solver's quick tiers
//	solve    dcp4, fabric and dapper: bit-blasting and CDCL SAT
//	serve    p4served over loopback HTTP: service, caches, WAL, incremental
//
// With -trace 1 it makes a separate traced run of the same inputs and
// prints per-layer metrics instead. The last line of standard output is
// one JSON object: {"correct", "attempted", "failed", "metrics"}.
// perfbench/README.md explains the workloads and how to compare runs;
// perfbench/run.py builds this program and p4served and launches it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"
)

// config is one benchmark invocation.
type config struct {
	Workload  string
	Seed      int64
	Seconds   float64
	Trace     bool
	Sizes     sizes
	SetupReps int
	// P4served is the daemon binary the serve workload starts.
	P4served string
	// WorkDir holds the daemon's temporary store directories.
	WorkDir string
	// SpansOut, when set, receives the traced run's spans as JSON.
	SpansOut string
	Commit   string
}

// result is one run's outcome.
type result struct {
	Correct   bool
	Attempted int
	Failed    int
	Metrics   metrics
	Errors    []string
	// Env is the environment block printed beside the result.
	Env map[string]any
}

func main() {
	cfg := config{Sizes: fullSizes, SetupReps: 15}
	var trace int
	flag.StringVar(&cfg.Workload, "workload", "", "explore, rules, solve or serve")
	flag.Int64Var(&cfg.Seed, "seed", 1, "seed of the generated serve mix")
	flag.Float64Var(&cfg.Seconds, "seconds", 10, "length of the timed loop in seconds")
	flag.IntVar(&trace, "trace", 0, "1 makes the traced per-layer run instead of the end-to-end one")
	flag.StringVar(&cfg.P4served, "p4served", "", "p4served binary for the serve workload")
	flag.StringVar(&cfg.WorkDir, "workdir", os.TempDir(), "directory for the daemon's temporary store")
	flag.StringVar(&cfg.SpansOut, "spans", "", "file the traced run writes its spans to")
	flag.StringVar(&cfg.Commit, "commit", "unknown", "source revision recorded in the environment block")
	flag.Parse()
	cfg.Trace = trace == 1

	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := printResult(os.Stdout, res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !res.Correct {
		os.Exit(1)
	}
}

func run(cfg config) (*result, error) {
	if cfg.Seconds <= 0 {
		return nil, fmt.Errorf("-seconds must be positive")
	}
	var res *result
	var err error
	switch cfg.Workload {
	case "explore", "rules", "solve":
		if cfg.Trace {
			res, err = tracedInproc(cfg)
		} else {
			res, err = endToEndInproc(cfg)
		}
	case "serve":
		res, err = runServe(cfg)
	default:
		return nil, fmt.Errorf("unknown workload %q (want explore, rules, solve or serve)", cfg.Workload)
	}
	if err != nil {
		return nil, err
	}
	if res.Env == nil {
		res.Env = map[string]any{}
	}
	res.Env["nproc"] = runtime.NumCPU()
	res.Env["gomaxprocs"] = runtime.GOMAXPROCS(0)
	res.Env["go_version"] = runtime.Version()
	res.Env["commit"] = cfg.Commit
	res.Env["seed"] = cfg.Seed
	res.Env["workload"] = cfg.Workload
	res.Env["seconds"] = cfg.Seconds
	res.Env["trace"] = cfg.Trace
	if cfg.Trace {
		for _, lm := range layerMetricNames {
			if _, ok := res.Metrics[lm.name]; !ok {
				// The layer is not on this workload's path.
				res.Metrics.set(lm.name, 0, lm.unit)
			}
		}
	}
	return res, nil
}

// endToEndInproc runs an in-process workload untraced.
func endToEndInproc(cfg config) (*result, error) {
	ins, setups, err := setupInproc(cfg.Workload, cfg.Sizes, cfg.SetupReps)
	if err != nil {
		return nil, err
	}
	// The high-water mark is read at the end of set-up: over the timed loop
	// it is the extreme of thousands of GC cycles and moved by a quarter
	// between identical runs.
	rss, err := peakRSSMB("self")
	if err != nil {
		return nil, err
	}
	s := runLoop(ins, seconds(cfg.Seconds), untraced)
	m := metrics{}
	endToEnd(m, s.Lat, s.Attempted, s.Elapsed, setups)
	m.set("peak_rss_mb", rss, "MB")
	return &result{
		Correct:   s.Failed == 0,
		Attempted: s.Attempted,
		Failed:    s.Failed,
		Metrics:   m,
		Errors:    s.Errors,
	}, nil
}

// endToEnd sets the metrics every workload reports from its timed loop.
func endToEnd(m metrics, lat []time.Duration, attempted int, elapsed time.Duration, setups []time.Duration) {
	m.set("verdict_p50_ms", percentile(lat, 0.5), "ms")
	m.set("verdict_p90_ms", percentile(lat, 0.9), "ms")
	m.set("verdicts_per_s", ratio(float64(len(lat)), elapsed.Seconds()), "1/s")
	m.set("correct_ratio", ratio(float64(len(lat)), float64(attempted)), "1")
	m.set("setup_s", percentile(setups, 0.5)/1e3, "s")
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// printResult writes each metric on its own line, then the environment
// block, then the result object as the last line.
func printResult(w io.Writer, res *result) error {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%-36s %14.4f %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	for _, e := range res.Errors {
		fmt.Fprintln(w, "error:", e)
	}
	env, err := json.Marshal(map[string]any{"environment": res.Env})
	if err != nil {
		return err
	}
	fmt.Fprintln(w, string(env))
	last, err := json.Marshal(struct {
		Correct   bool    `json:"correct"`
		Attempted int     `json:"attempted"`
		Failed    int     `json:"failed"`
		Metrics   metrics `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, res.Metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(last))
	return err
}
