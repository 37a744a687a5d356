package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"p4assert/internal/core"
	"p4assert/internal/progs"
	"p4assert/internal/service"
	"p4assert/internal/telemetry"
)

// The serve workload drives a p4served subprocess over loopback HTTP with
// one closed-loop client: it waits for its verdict before submitting the
// next job, as every p4verify -remote caller does. With two clients each
// job also waited for the other's on the daemon's two workers, and that
// wait magnified every swing of the shared host. All jobs verify fabric
// with parallel: 2. The seeded mix holds three classes in blocks of ten;
// its shares put p50 inside the incremental class and p90 inside the cold
// class, away from any class boundary.
const (
	serveClients = 1
	serveFile    = "fabric.p4"
	jobTimeout   = time.Minute
)

type jobClass int

const (
	classHit  jobClass = iota // resubmission of the base job: a result-cache hit
	classIncr                 // base_job edit of one routing action: most submodels replay
	classCold                 // single-literal edit after routing: every submodel executes
)

var classNames = [...]string{"hit", "incr", "cold"}

// classBlock is one block of the mix: 40% hits, 30% incremental, 30% cold.
var classBlock = []jobClass{classHit, classHit, classHit, classHit,
	classIncr, classIncr, classIncr, classCold, classCold, classCold}

// ecmpLine is the body of fabric's route_ecmp action. An incremental
// edit XORs a seeded 32-bit mask into it; the hash feeds no assertion,
// so the verdict stays "holds" and the cost stays that of the base.
const ecmpLine = "meta.ecmp_hash = hdr.ipv4.srcAddr ^ hdr.ipv4.dstAddr;"

// coldSites are 8-bit literals that every submodel executes: literals of
// the traffic-class and egress stages, which follow the routing split, and
// the DSCP_EF constant, which the traffic-class stage uses. A cold job
// rewrites two of them with fresh values, which gives a fresh source and
// fresh submodel keys at the cost of a cold run; the rewritten bits never
// reach an assertion. The 10 × 255² distinct edits outlast any run.
var coldSites = [...]struct{ anchor, literal string }{
	{"const bit<8>  DSCP_EF = 0x2E;", "0x2E"},
	{"standard_metadata.priority = 1;\n        hdr.ipv4.diffserv = hdr.ipv4.diffserv & 0xFC;", "0xFC"},
	{"action rw_decap() {\n        hdr.ipv4.diffserv = hdr.ipv4.diffserv & 0xFC;", "0xFC"},
	{"hdr.ipv4.diffserv = hdr.ipv4.diffserv | 0x2;", "0x2"},
	{"hdr.ipv4.diffserv = hdr.ipv4.diffserv | 0x1;", "0x1"},
}

// jobSpec is one generated submission.
type jobSpec struct {
	class  jobClass
	source string
}

// mix generates the seeded job sequence. Every incremental and cold
// source is distinct, so neither can hit the result cache.
type mix struct {
	mu    sync.Mutex
	rng   *rand.Rand
	base  string
	block []jobClass
	masks map[uint32]bool
	// orig holds each cold site's literal; cold records every edit made,
	// as the value each site holds.
	orig []int
	cold map[[len(coldSites)]int]bool
}

func newMix(seed int64) (*mix, error) {
	p, err := progs.Get("fabric")
	if err != nil {
		return nil, err
	}
	if strings.Count(p.Source, ecmpLine) != 1 {
		return nil, fmt.Errorf("fabric: route_ecmp edit site not found")
	}
	x := &mix{
		rng:   rand.New(rand.NewSource(seed)),
		base:  p.Source,
		masks: map[uint32]bool{},
		cold:  map[[len(coldSites)]int]bool{},
	}
	for _, s := range coldSites {
		if strings.Count(p.Source, s.anchor) != 1 {
			return nil, fmt.Errorf("fabric: cold edit site %q not found once", s.anchor)
		}
		orig, err := strconv.ParseUint(s.literal, 0, 8)
		if err != nil {
			return nil, err
		}
		x.orig = append(x.orig, int(orig))
	}
	return x, nil
}

// coldEdit rewrites two distinct cold sites with seeded values other than
// their own; no edit repeats within a run. The new literals are written
// with two hex digits, so no edit can recreate another site's anchor.
func (x *mix) coldEdit() string {
	for {
		var vals [len(coldSites)]int
		copy(vals[:], x.orig)
		i := x.rng.Intn(len(coldSites))
		j := x.rng.Intn(len(coldSites) - 1)
		if j >= i {
			j++
		}
		for _, k := range []int{i, j} {
			if vals[k] = x.rng.Intn(255); vals[k] >= x.orig[k] {
				vals[k]++
			}
		}
		if x.cold[vals] {
			continue
		}
		x.cold[vals] = true
		src := x.base
		for _, k := range []int{i, j} {
			s := coldSites[k]
			edited := strings.Replace(s.anchor, s.literal, fmt.Sprintf("0x%02X", vals[k]), 1)
			src = strings.Replace(src, s.anchor, edited, 1)
		}
		return src
	}
}

// spec returns a job of the given class.
func (x *mix) spec(c jobClass) jobSpec {
	switch c {
	case classIncr:
		k := x.rng.Uint32()
		for k == 0 || x.masks[k] {
			k = x.rng.Uint32()
		}
		x.masks[k] = true
		line := strings.TrimSuffix(ecmpLine, ";") + fmt.Sprintf(" ^ 0x%08X;", k)
		return jobSpec{c, strings.Replace(x.base, ecmpLine, line, 1)}
	case classCold:
		return jobSpec{c, x.coldEdit()}
	}
	return jobSpec{c, x.base}
}

// next returns the next job of the seeded sequence.
func (x *mix) next() jobSpec {
	x.mu.Lock()
	defer x.mu.Unlock()
	if len(x.block) == 0 {
		x.block = append([]jobClass(nil), classBlock...)
		x.rng.Shuffle(len(x.block), func(i, j int) { x.block[i], x.block[j] = x.block[j], x.block[i] })
	}
	c := x.block[0]
	x.block = x.block[1:]
	return x.spec(c)
}

// daemon is a running p4served subprocess.
type daemon struct {
	cmd      *exec.Cmd
	dir      string
	base     string
	done     chan error
	stopOnce sync.Once
}

// startDaemon starts p4served on a free loopback port with its durable
// store (WAL) in a fresh directory and waits until it answers healthz.
// The daemon gets every CPU: GOMAXPROCS is left to its default.
func startDaemon(bin, workdir string) (*daemon, error) {
	if bin == "" {
		return nil, errors.New("serve workload needs -p4served")
	}
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(workdir, "p4served-")
	if err != nil {
		return nil, err
	}
	addr, err := freeAddr()
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	logf, err := os.Create(filepath.Join(dir, "daemon.log"))
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	defer logf.Close()
	cmd := exec.Command(bin, "-addr", addr, "-store-dir", filepath.Join(dir, "store"))
	cmd.Stdout, cmd.Stderr = logf, logf
	for _, kv := range os.Environ() {
		if !strings.HasPrefix(kv, "GOMAXPROCS=") {
			cmd.Env = append(cmd.Env, kv)
		}
	}
	if err := cmd.Start(); err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	d := &daemon{cmd: cmd, dir: dir, base: "http://" + addr, done: make(chan error, 1)}
	go func() { d.done <- cmd.Wait() }()

	deadline := time.Now().Add(15 * time.Second)
	for {
		resp, err := http.Get(d.base + "/v1/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		select {
		case err := <-d.done:
			d.done <- err
			log := tail(filepath.Join(dir, "daemon.log"))
			d.stop()
			return nil, fmt.Errorf("p4served exited during start (%v): %s", err, log)
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, errors.New("p4served did not become healthy within 15s")
		}
	}
}

// stop drains the daemon with SIGTERM (SIGKILL after 10s), waits for it
// to exit and removes its directory.
func (d *daemon) stop() {
	d.stopOnce.Do(func() {
		_ = d.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited
		select {
		case <-d.done:
		case <-time.After(10 * time.Second):
			_ = d.cmd.Process.Kill()
			<-d.done
		}
		os.RemoveAll(d.dir)
	})
}

func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

func tail(path string) string {
	data, _ := os.ReadFile(path) // diagnostics only
	if len(data) > 2000 {
		data = data[len(data)-2000:]
	}
	return string(data)
}

// jobOutcome is one finished submission.
type jobOutcome struct {
	class  jobClass
	source string
	id     string
	shed   bool // refused with HTTP 429
	lat    time.Duration
	report []byte       // ComparableJSON of the fetched report
	full   *core.Report // the fetched report, kept by traced runs only
	status service.JobStatus
	err    error
}

// serveSession is one daemon with its clients.
type serveSession struct {
	d      *daemon
	client *service.Client
	baseID string
}

func newSession(d *daemon) *serveSession {
	return &serveSession{d: d, client: &service.Client{
		Base:       d.base,
		HTTP:       &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4 * serveClients}},
		MaxRetries: -1, // a refusal is a failed verdict, not something to hide
	}}
}

// submit runs one job to its report: POST /v1/jobs, the SSE feed until
// the terminal marker, then GET the report. The latency covers all three.
// With tr set it also fetches the job status (outside the latency) and
// records a span per request.
func (s *serveSession) submit(js jobSpec, tr *tracer, n int) jobOutcome {
	out := jobOutcome{class: js.class, source: js.source}
	ctx, cancel := context.WithTimeout(context.Background(), jobTimeout)
	defer cancel()
	req := service.JobRequest{Filename: serveFile, Source: js.source, Options: service.Techniques{Parallel: 2}}
	if js.class == classIncr {
		req.BaseJob = s.baseID
	}
	var root, sp int
	if tr != nil {
		root = tr.start(n, 0, "job:"+classNames[js.class])
		defer tr.end(root)
		sp = tr.start(n, root, "submit")
	}
	t0 := time.Now()
	st, err := s.client.Submit(ctx, req)
	if tr != nil {
		tr.end(sp)
	}
	if err != nil {
		var he *service.HTTPError
		out.shed = errors.As(err, &he) && he.Status == http.StatusTooManyRequests
		out.err = fmt.Errorf("submit: %w", err)
		return out
	}
	out.id = st.ID
	if tr != nil {
		sp = tr.start(n, root, "events")
	}
	final := ""
	err = s.client.Follow(ctx, st.ID, 0, func(ev telemetry.Event) error {
		if service.TerminalJobEvent(ev) {
			final = ev.Name
		}
		return nil
	})
	if tr != nil {
		tr.end(sp)
	}
	if err == nil && final != string(service.StateDone) {
		err = fmt.Errorf("job %s ended %q", st.ID, final)
	}
	if err != nil {
		out.err = err
		return out
	}
	if tr != nil {
		sp = tr.start(n, root, "report")
	}
	raw, err := s.client.RawReport(ctx, st.ID)
	out.lat = time.Since(t0)
	if tr != nil {
		tr.end(sp)
	}
	if err != nil {
		out.err = fmt.Errorf("report: %w", err)
		return out
	}
	var rep core.Report
	if err := json.Unmarshal(raw, &rep); err != nil {
		out.err = fmt.Errorf("report: %w", err)
		return out
	}
	if out.report, err = rep.ComparableJSON(); err != nil {
		out.err = err
		return out
	}
	out.status = st
	if tr != nil {
		out.full = &rep
		sp = tr.start(n, root, "status")
		out.status, out.err = s.client.Status(ctx, st.ID)
		tr.end(sp)
	}
	return out
}

// warmUp runs the warm-up jobs one after another. The first submits the
// base source cold; later hits and incremental edits refer to it. It is
// set-up, not timed load.
func (s *serveSession) warmUp(warm []jobSpec) ([]jobOutcome, error) {
	var outs []jobOutcome
	for i, js := range warm {
		o := s.submit(js, nil, 0)
		if o.err != nil {
			return nil, fmt.Errorf("warm-up %s job: %w", classNames[js.class], o.err)
		}
		if i == 0 {
			s.baseID = o.id
		}
		outs = append(outs, o)
	}
	return outs, nil
}

// load runs the closed-loop clients until d has passed.
func (s *serveSession) load(x *mix, d time.Duration, tr *tracer) ([]jobOutcome, time.Duration) {
	var mu sync.Mutex
	var outs []jobOutcome
	var wg sync.WaitGroup
	var seq atomic.Int64
	start := time.Now()
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < d {
				o := s.submit(x.next(), tr, int(seq.Add(1)))
				mu.Lock()
				outs = append(outs, o)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return outs, time.Since(start)
}

// scrape reads one unlabelled series from /v1/metrics.
func (s *serveSession) scrape(name string) (float64, error) {
	resp, err := s.client.HTTP.Get(s.d.base + "/v1/metrics")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) == 2 && f[0] == name {
			return strconv.ParseFloat(f[1], 64)
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("/v1/metrics has no %s", name)
}

// setupServe starts the daemon and warms it, cfg.SetupReps times; all but
// the last daemon are stopped again. It returns the running session.
func setupServe(cfg config, reps int, warm []jobSpec) (*serveSession, []jobOutcome, []time.Duration, error) {
	var times []time.Duration
	for r := 0; ; r++ {
		t0 := time.Now()
		d, err := startDaemon(cfg.P4served, cfg.WorkDir)
		if err != nil {
			return nil, nil, nil, err
		}
		s := newSession(d)
		outs, err := s.warmUp(warm)
		if err != nil {
			d.stop()
			return nil, nil, nil, err
		}
		times = append(times, time.Since(t0))
		if r == reps-1 {
			return s, outs, times, nil
		}
		d.stop()
	}
}

// checkReports compares every fetched report with the in-process
// pipeline's report for the same request (one reference per distinct
// source) and requires fabric's known verdict: all assertions hold.
// It runs after the daemon has stopped, outside every timed loop.
func checkReports(outs []jobOutcome) []jobOutcome {
	refs := map[string][]byte{}
	for i := range outs {
		o := &outs[i]
		if o.err != nil {
			continue
		}
		ref, ok := refs[o.source]
		if !ok {
			rep, err := core.VerifySource(serveFile, o.source, core.Options{Parallel: 2})
			if err == nil && !rep.Ok() {
				err = errors.New("in-process reference does not hold")
			}
			if err == nil {
				ref, err = rep.ComparableJSON()
			}
			if err != nil {
				o.err = fmt.Errorf("reference: %w", err)
				continue
			}
			refs[o.source] = ref
		}
		if string(ref) != string(o.report) {
			o.err = fmt.Errorf("%s job: fetched report differs from the in-process report", classNames[o.class])
		}
	}
	return outs
}

// tally splits outcomes into latencies of correct verdicts and failures.
func tally(outs []jobOutcome) (lat []time.Duration, failed int, errs []string) {
	for _, o := range outs {
		if o.err != nil {
			failed++
			if len(errs) < 5 {
				errs = append(errs, o.err.Error())
			}
			continue
		}
		lat = append(lat, o.lat)
	}
	return lat, failed, errs
}

func runServe(cfg config) (*result, error) {
	x, err := newMix(cfg.Seed)
	if err != nil {
		return nil, err
	}
	// The warm-up's edits come from the seeded sequence too, so no timed
	// job repeats one of them.
	warm := []jobSpec{{classCold, x.base}, {classHit, x.base}}
	for _, c := range []jobClass{classIncr, classCold} {
		warm = append(warm, x.spec(c))
	}
	reps := cfg.SetupReps
	if cfg.Trace {
		reps = 1
	}
	s, warmOuts, setups, err := setupServe(cfg, reps, warm)
	if err != nil {
		return nil, err
	}
	env := map[string]any{"daemon_gomaxprocs": "default (nproc)", "clients": serveClients}
	if !cfg.Trace {
		// Read at the end of set-up, as in process: at the end of the
		// timed loop the daemon's high-water mark depends on where its GC
		// cycle stood and ranged from 165 to 390 MB between identical runs.
		rss, err := peakRSSMB(strconv.Itoa(s.d.cmd.Process.Pid))
		if err != nil {
			s.d.stop()
			return nil, err
		}
		outs, elapsed := s.load(x, seconds(cfg.Seconds), nil)
		s.d.stop()
		if _, failed, errs := tally(checkReports(warmOuts)); failed > 0 {
			return nil, fmt.Errorf("warm-up: %s", errs[0])
		}
		outs = checkReports(outs)
		lat, failed, errs := tally(outs)
		m := metrics{}
		endToEnd(m, lat, len(outs), elapsed, setups)
		m.set("peak_rss_mb", rss, "MB")
		return &result{Correct: failed == 0, Attempted: len(outs), Failed: failed, Metrics: m, Errors: errs, Env: env}, nil
	}
	return tracedServe(cfg, s, x, env)
}

// tracedServe is the per-layer run of the serve workload: an untraced half
// for the tracing overhead, then a traced half that also reads each job's
// status, the daemon's /v1/stats and its store series.
func tracedServe(cfg config, s *serveSession, x *mix, env map[string]any) (*result, error) {
	defer s.d.stop()
	half := seconds(cfg.Seconds / 2)
	plain, plainElapsed := s.load(x, half, nil)
	appends0, err := s.scrape("p4served_store_appends")
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	traced, tracedElapsed := s.load(x, half, tr)
	appends1, err := s.scrape("p4served_store_appends")
	if err != nil {
		return nil, err
	}
	snapshots, err := s.scrape("p4served_store_snapshots")
	if err != nil {
		return nil, err
	}
	stats, err := s.client.Stats(context.Background())
	if err != nil {
		return nil, err
	}
	s.d.stop()
	if err := tr.write(cfg.SpansOut); err != nil {
		return nil, err
	}
	plain = checkReports(plain)
	traced = checkReports(traced)
	plainLat, plainFailed, errs := tally(plain)
	tracedLat, tracedFailed, errs2 := tally(traced)

	m := serveLayers(traced)
	m.set("vcache.hit_ratio", ratio(float64(stats.Cache.Hits), float64(stats.Cache.Hits+stats.Cache.Misses)), "1")
	m.set("store.appends_per_job", ratio(appends1-appends0, float64(len(traced))), "count")
	m.set("store.snapshots", snapshots, "count")
	shed := 0
	for _, o := range append(plain, traced...) {
		if o.shed {
			shed++
		}
	}
	m.set("service.shed", float64(shed), "count")
	plainVPS := ratio(float64(len(plainLat)), plainElapsed.Seconds())
	tracedVPS := ratio(float64(len(tracedLat)), tracedElapsed.Seconds())
	m.set("trace.overhead_ratio", ratio(plainVPS-tracedVPS, plainVPS), "1")
	failed := plainFailed + tracedFailed
	return &result{
		Correct:   failed == 0,
		Attempted: len(plain) + len(traced),
		Failed:    failed,
		Metrics:   m,
		Errors:    append(errs, errs2...),
		Env:       env,
	}, nil
}

// serveLayers derives the per-layer metrics of the traced half from the
// job statuses (timestamps, cache hits, submodel reuse) and, for the cold
// class, from the fetched reports' telemetry.
func serveLayers(outs []jobOutcome) metrics {
	var queue, run, overhead []time.Duration
	perClass := make([][]time.Duration, len(classNames))
	var reused, executed float64
	var samples []layerSample
	var submodels, worstShare float64
	for _, o := range outs {
		if o.err != nil {
			continue
		}
		st := o.status
		perClass[o.class] = append(perClass[o.class], o.lat)
		if st.StartedAt != nil && st.FinishedAt != nil {
			queue = append(queue, st.StartedAt.Sub(st.EnqueuedAt))
			run = append(run, st.FinishedAt.Sub(*st.StartedAt))
			overhead = append(overhead, o.lat-st.FinishedAt.Sub(st.EnqueuedAt))
		}
		if o.class == classIncr {
			reused += float64(st.SubmodelsReused)
			executed += float64(st.SubmodelsExecuted)
		}
		if o.class == classCold && o.full != nil && o.full.Telemetry != nil {
			rep := o.full
			samples = append(samples, reportSample(rep))
			submodels += float64(rep.Submodels)
			worstShare += ratio(float64(rep.WorstSubmodelInstructions), float64(rep.Metrics.Instructions))
		}
	}
	m := layerMetrics(samples)
	m.set("submodel.count", ratio(submodels, float64(len(samples))), "count")
	m.set("submodel.worst_share", ratio(worstShare, float64(len(samples))), "1")
	m.set("service.queue_wait_ms", percentile(queue, 0.5), "ms")
	m.set("service.run_ms", percentile(run, 0.5), "ms")
	m.set("service.client_overhead_ms", percentile(overhead, 0.5), "ms")
	m.set("service.hit_ms", percentile(perClass[classHit], 0.5), "ms")
	m.set("service.incr_ms", percentile(perClass[classIncr], 0.5), "ms")
	m.set("service.cold_ms", percentile(perClass[classCold], 0.5), "ms")
	m.set("incr.reuse_ratio", ratio(reused, reused+executed), "1")
	return m
}

// reportSample rebuilds a layer sample from a report's telemetry: stage
// wall times, the deterministic counters and the solver section.
func reportSample(rep *core.Report) layerSample {
	t := rep.Telemetry
	var ls layerSample
	for _, st := range t.Stages {
		d := time.Duration(st.DurationNS)
		switch st.Name {
		case "parse":
			ls.Parse = d
		case "typecheck":
			ls.Check = d
		case "translate":
			ls.Translate = d
		case "execute":
			ls.Execute = d
		}
	}
	ls.Metrics = rep.Metrics
	a := &ls.Metrics.Solver.Accel
	a.WallNS = t.Solver["solver_wall_ns"]
	a.MemoHits = t.Solver["memo_hits"]
	a.SessionReuseHits = t.Solver["session_reuse_hits"]
	a.PortfolioSessionWins = t.Solver["portfolio_session_wins"]
	a.PortfolioFreshWins = t.Solver["portfolio_fresh_wins"]
	a.Decisions = t.Solver["sat_decisions"]
	a.Propagations = t.Solver["sat_propagations"]
	a.Conflicts = t.Solver["sat_conflicts"]
	a.LearnedClauses = t.Solver["sat_learned"]
	return ls
}
