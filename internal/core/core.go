// Package core orchestrates the verification pipeline of the paper's
// Figure 3: parse and type-check the annotated P4 program, translate it
// (optionally under a forwarding-rule configuration) into a model,
// optionally optimize (the -O3 analogue), slice, and symbolically execute —
// sequentially or parallelized over submodels.
package core

import (
	"context"
	"fmt"
	"sort"
	"time"

	"p4assert/internal/exec"
	"p4assert/internal/model"
	"p4assert/internal/opt"
	"p4assert/internal/p4"
	"p4assert/internal/rules"
	"p4assert/internal/slicer"
	"p4assert/internal/solver"
	"p4assert/internal/submodel"
	"p4assert/internal/sym"
	"p4assert/internal/telemetry"
	"p4assert/internal/translate"
)

// Options selects the pipeline configuration, mirroring the paper's
// technique matrix (§4): O3 compiler optimization, KLEE-style executor
// optimization, constraints (via @assume in the source), program slicing,
// and submodel parallelization.
type Options struct {
	// Rules optionally supplies forwarding rules (control-plane config).
	Rules *rules.RuleSet
	// O3 runs the IR optimization passes before execution.
	O3 bool
	// Opt enables executor-level optimizations (KLEE --optimize analogue).
	Opt bool
	// Slice applies backward slicing w.r.t. the program's assertions.
	Slice bool
	// Parallel > 0 splits into submodels and runs them on that many
	// workers; 0 runs sequentially.
	Parallel int
	// MaxCallDepth bounds parser loops (default 8).
	MaxCallDepth int
	// MaxPaths caps exploration (0 = unlimited).
	MaxPaths int64
	// Timeout bounds total execution wall time (0 = none).
	Timeout time.Duration
	// RegisterCellLimit forwards to the translator.
	RegisterCellLimit int
	// AutoValidityChecks asks the translator to instrument every header
	// field access with an automatic validity assertion.
	AutoValidityChecks bool
	// CollectTests records one concrete input per completed path.
	CollectTests bool
	// Solver configures the solver; the zero value enables the normalized
	// query memo. The memo is report-invariant: with or without it the
	// reports are byte-identical, only wall time and the non-comparable
	// solver telemetry change.
	Solver solver.Config
}

// Report is the outcome of a verification run.
type Report struct {
	// Violations lists assertion failures with counterexamples.
	Violations []*sym.Violation
	// Metrics aggregates executor effort.
	Metrics sym.Metrics
	// WorstSubmodelInstructions is meaningful when Parallel > 0: the
	// instruction count of the heaviest submodel (Table 2, column 10).
	WorstSubmodelInstructions int64
	// Submodels is how many submodels ran (0 for sequential runs).
	Submodels int
	// Model is the program that was executed (after optimization/slicing),
	// for inspection.
	Model *model.Program
	// ViolationModels, set for parallel runs, maps each violated assertion
	// to the submodel whose execution found it; counterexample traces are
	// relative to that submodel, so replay runs it instead of Model.
	ViolationModels map[int]*model.Program
	// Asserts carries the assertion table of the translated program.
	Asserts []*model.AssertInfo
	// SliceErr records a slicing failure (e.g. recursive parser); when
	// non-nil, execution proceeded on the unsliced model, matching how the
	// paper reports "-" for MRI.
	SliceErr error
	// Durations of the pipeline stages. ParseTime and CheckTime are only
	// recorded when verification starts from source text.
	ParseTime     time.Duration
	CheckTime     time.Duration
	TranslateTime time.Duration
	OptimizeTime  time.Duration
	SliceTime     time.Duration
	ExecTime      time.Duration
	// Telemetry is the observability section of the report: the stage
	// wall-time breakdown and the executor work counters, in the named
	// form external consumers (p4bench BENCH json, dashboards) read
	// without knowing the Report field layout. Populated by every cold
	// and incremental pipeline run; nil on reports built elsewhere.
	Telemetry *ReportTelemetry
	// Tests holds one generated test case per completed path when
	// Options.CollectTests is set (sequential runs only).
	Tests []sym.PathTest
	// Exhausted reports an aborted exploration (path/time budget).
	Exhausted bool
}

// Ok reports whether verification completed with no violations.
func (r *Report) Ok() bool { return !r.Exhausted && len(r.Violations) == 0 }

// VerifySource parses, checks, translates and executes P4 source text.
func VerifySource(filename, source string, opts Options) (*Report, error) {
	return VerifySourceCtx(context.Background(), filename, source, opts)
}

// VerifySourceCtx is VerifySource with early cancellation: when ctx is
// cancelled (or its deadline passes) the symbolic-execution loop stops and
// ctx.Err() is returned. The verification service uses this for per-job
// timeouts and client-requested cancellation.
func VerifySourceCtx(ctx context.Context, filename, source string, opts Options) (*Report, error) {
	rep := &Report{}
	prog, err := parseChecked(ctx, filename, source, rep)
	if err != nil {
		return nil, err
	}
	return verifyProgram(ctx, prog, opts, rep, true, exec.Local{}, nil)
}

// VerifySourceExec is VerifySourceCtx with the per-submodel executions
// routed through ex (e.g. a cluster.Coordinator dispatching to remote
// worker nodes). Requires Parallel > 0: only the submodel-split pipeline
// has distributable units. The report is byte-identical (ComparableJSON)
// to a local run of the same request.
func VerifySourceExec(ctx context.Context, filename, source string, opts Options, ex exec.Executor) (*Report, error) {
	if opts.Parallel <= 0 {
		return nil, fmt.Errorf("core: executor-routed verification requires Parallel > 0")
	}
	rep := &Report{}
	prog, err := parseChecked(ctx, filename, source, rep)
	if err != nil {
		return nil, err
	}
	return verifyProgram(ctx, prog, opts, rep, true, ex, JobSpec(filename, source, opts))
}

// JobSpec renders a verification request as the rebuild-from-source
// recipe remote executors consume (internal/exec): source text, canonical
// rules rendering, and the model-shaping option subset.
func JobSpec(filename, source string, opts Options) *exec.JobSpec {
	spec := &exec.JobSpec{
		Filename:           filename,
		Source:             source,
		O3:                 opts.O3,
		Opt:                opts.Opt,
		Slice:              opts.Slice,
		MaxCallDepth:       opts.MaxCallDepth,
		MaxPaths:           opts.MaxPaths,
		RegisterCellLimit:  opts.RegisterCellLimit,
		AutoValidityChecks: opts.AutoValidityChecks,
	}
	if opts.Rules != nil {
		spec.Rules = rules.Render(opts.Rules)
	}
	return spec
}

// SpecOptions is JobSpec's inverse: the core.Options a remote worker
// rebuilds a job's submodels under. Parallel is irrelevant on the worker
// (it executes single submodels) and stays zero.
func SpecOptions(spec *exec.JobSpec) (Options, error) {
	opts := Options{
		O3:                 spec.O3,
		Opt:                spec.Opt,
		Slice:              spec.Slice,
		MaxCallDepth:       spec.MaxCallDepth,
		MaxPaths:           spec.MaxPaths,
		RegisterCellLimit:  spec.RegisterCellLimit,
		AutoValidityChecks: spec.AutoValidityChecks,
	}
	if spec.Rules != "" {
		rs, err := rules.Parse(spec.Rules)
		if err != nil {
			return opts, fmt.Errorf("core: job spec rules: %w", err)
		}
		opts.Rules = rs
	}
	return opts, nil
}

// PrepareSubmodels rebuilds the submodel split a parallel pipeline run of
// (filename, source, opts) executes, returning the submodels in canonical
// split order with their executable-content keys. A remote worker
// (internal/cluster) calls this to reconstruct the coordinator's work
// units; the front end, translation, passes and split are deterministic,
// so the rebuilt keys must match the coordinator's — a mismatch signals
// version skew and the worker refuses the job.
func PrepareSubmodels(ctx context.Context, filename, source string, opts Options) ([]*model.Program, []string, error) {
	rep := &Report{}
	prog, err := parseChecked(ctx, filename, source, rep)
	if err != nil {
		return nil, nil, err
	}
	m, err := translateStage(ctx, prog, opts, rep)
	if err != nil {
		return nil, nil, err
	}
	// applyPasses degrades to the unsliced model on a slicing failure,
	// exactly as the pipeline does — the worker must mirror the pipeline,
	// not ApplyModelPasses' hard-error contract.
	m = applyPasses(ctx, m, opts, rep)
	subs := submodel.Split(m)
	symOpts := buildSymOpts(ctx, opts)
	keys := make([]string, len(subs))
	for i, sub := range subs {
		keys[i] = exec.SubmodelKey(sub, symOpts)
	}
	return subs, keys, nil
}

// parseChecked runs the front end (parse + typecheck) under spans,
// recording the two stage durations in rep.
func parseChecked(ctx context.Context, filename, source string, rep *Report) (*p4.Program, error) {
	t0 := time.Now()
	_, sp := telemetry.StartSpan(ctx, "parse")
	prog, err := p4.Parse(filename, source)
	sp.End()
	rep.ParseTime = time.Since(t0)
	if err != nil {
		return nil, err
	}
	t0 = time.Now()
	_, sp = telemetry.StartSpan(ctx, "typecheck")
	err = prog.Check()
	sp.End()
	rep.CheckTime = time.Since(t0)
	if err != nil {
		return nil, err
	}
	return prog, nil
}

// VerifyProgram runs the pipeline on a checked P4 program.
func VerifyProgram(prog *p4.Program, opts Options) (*Report, error) {
	return VerifyProgramCtx(context.Background(), prog, opts)
}

// VerifyProgramCtx is VerifyProgram with early cancellation via ctx.
func VerifyProgramCtx(ctx context.Context, prog *p4.Program, opts Options) (*Report, error) {
	return verifyProgram(ctx, prog, opts, &Report{}, false, exec.Local{}, nil)
}

func verifyProgram(ctx context.Context, prog *p4.Program, opts Options, rep *Report, fromSource bool, ex exec.Executor, job *exec.JobSpec) (*Report, error) {
	m, err := translateStage(ctx, prog, opts, rep)
	if err != nil {
		return nil, err
	}
	return verifyModel(ctx, m, opts, rep, fromSource, ex, job)
}

// translateStage runs the translator under its span, recording the stage
// duration in rep. Shared by the cold pipeline and the incremental
// engine.
func translateStage(ctx context.Context, prog *p4.Program, opts Options, rep *Report) (*model.Program, error) {
	t0 := time.Now()
	_, sp := telemetry.StartSpan(ctx, "translate")
	m, err := translate.Translate(prog, translate.Options{
		Rules:              opts.Rules,
		RegisterCellLimit:  opts.RegisterCellLimit,
		AutoValidityChecks: opts.AutoValidityChecks,
	})
	sp.End()
	if err != nil {
		return nil, err
	}
	rep.TranslateTime = time.Since(t0)
	return m, nil
}

// VerifyModel runs the post-translation pipeline stages on a model
// directly (used by benchmarks that pre-build models).
func VerifyModel(m *model.Program, opts Options) (*Report, error) {
	return verifyModel(context.Background(), m, opts, &Report{}, false, exec.Local{}, nil)
}

// VerifyModelCtx is VerifyModel with early cancellation via ctx.
func VerifyModelCtx(ctx context.Context, m *model.Program, opts Options) (*Report, error) {
	return verifyModel(ctx, m, opts, &Report{}, false, exec.Local{}, nil)
}

// BuildModel runs the front end and the translator on source, returning
// the raw (pre-optimization, pre-slicing) model. The differential engine
// (internal/equiv) and the test-suite generator build per-version models
// this way before applying per-side passes.
func BuildModel(filename, source string, opts Options) (*model.Program, error) {
	rep := &Report{}
	prog, err := parseChecked(context.Background(), filename, source, rep)
	if err != nil {
		return nil, err
	}
	return translateStage(context.Background(), prog, opts, rep)
}

// ApplyModelPasses runs the model-level pipeline stages selected by opts
// (optimization, slicing) on m, as the verification pipeline would. Unlike
// the pipeline — which degrades to the unsliced model when the slicer
// refuses a program — a slicing failure is a hard error here: callers ask
// for the transformed model specifically to compare it against another
// version, and silently comparing the untransformed one would make that
// comparison vacuous.
func ApplyModelPasses(m *model.Program, opts Options) (*model.Program, error) {
	rep := &Report{}
	out := applyPasses(context.Background(), m, opts, rep)
	if opts.Slice && rep.SliceErr != nil {
		return nil, rep.SliceErr
	}
	return out, nil
}

// applyPasses runs the model-level pipeline stages selected by opts —
// optimization (O3 or the light executor-opt set) and slicing — recording
// stage durations and a slicing failure in rep. Shared by the cold
// pipeline (verifyModel) and the incremental engine (VerifyIncremental),
// which must transform models identically for cached submodel verdicts to
// stay comparable to cold ones.
func applyPasses(ctx context.Context, m *model.Program, opts Options, rep *Report) *model.Program {
	if opts.O3 || opts.Opt {
		t0 := time.Now()
		_, sp := telemetry.StartSpan(ctx, "optimize")
		if opts.O3 {
			m = opt.Apply(m, opt.O3())
		} else {
			// KLEE's --optimize flag runs LLVM passes over the bitcode
			// before executing it; mirror that with the light pass set (no
			// global constant marking or match-chain compaction, which are
			// -O3's).
			m = opt.Apply(m, opt.Passes{ConstFold: true, DeadCode: true, Simplify: true})
		}
		sp.End()
		rep.OptimizeTime = time.Since(t0)
	}
	if opts.Slice {
		t0 := time.Now()
		_, sp := telemetry.StartSpan(ctx, "slice")
		sliced, err := slicer.Slice(m)
		sp.End()
		if err != nil {
			rep.SliceErr = err
		} else {
			m = sliced
		}
		rep.SliceTime = time.Since(t0)
	}
	return m
}

// buildSymOpts maps pipeline options onto executor options.
func buildSymOpts(ctx context.Context, opts Options) sym.Options {
	symOpts := sym.Options{
		MaxCallDepth: opts.MaxCallDepth,
		MaxPaths:     opts.MaxPaths,
		Opt:          opts.Opt,
		CollectTests: opts.CollectTests,
		Solver:       opts.Solver,
	}
	if !opts.Solver.DisableMemo {
		// One shared memo tier per run: parallel submodels (and the
		// incremental engine's per-submodel executions) hit each other's
		// normalized queries.
		symOpts.SolverMemo = solver.NewMemo(solver.SharedMemoCap)
	}
	if opts.Timeout > 0 {
		symOpts.Deadline = time.Now().Add(opts.Timeout)
	}
	if ctx != nil && ctx != context.Background() {
		symOpts.Ctx = ctx
	}
	return symOpts
}

func verifyModel(ctx context.Context, m *model.Program, opts Options, rep *Report, fromSource bool, ex exec.Executor, job *exec.JobSpec) (*Report, error) {
	rep.Asserts = m.Asserts

	m = applyPasses(ctx, m, opts, rep)
	rep.Model = m

	symOpts := buildSymOpts(ctx, opts)

	t0 := time.Now()
	ectx, execSp := telemetry.StartSpan(ctx, "execute")
	if opts.Parallel > 0 {
		symOpts.CollectTests = false // test generation is sequential-only
		res, err := submodel.RunExec(ectx, m, symOpts, opts.Parallel, ex, job)
		if err != nil {
			execSp.End()
			return nil, err
		}
		rep.Violations = res.Agg.Violations
		rep.Metrics = res.Agg.Metrics
		rep.WorstSubmodelInstructions = res.WorstInstructions
		rep.Submodels = len(res.PerModel)
		rep.Exhausted = res.Agg.Exhausted
		rep.ViolationModels = res.ViolationModels
	} else {
		res, err := sym.Execute(m, symOpts)
		if err != nil {
			execSp.End()
			return nil, err
		}
		rep.Violations = res.Violations
		rep.Metrics = res.Metrics
		rep.Tests = res.Tests
		rep.Exhausted = res.Exhausted
	}
	submodel.AnnotateSpan(execSp, rep.Metrics)
	execSp.End()
	rep.ExecTime = time.Since(t0)
	CanonicalizeViolations(rep.Violations)
	fillTelemetry(rep, opts, fromSource)
	return rep, nil
}

// CanonicalizeViolations sorts a violation list into its canonical order:
// by assertion site (annotation location, then assertion ID), then by the
// counterexample model. Sequential, parallel and cache-replayed runs of the
// same request then serialize their violations byte-identically, which the
// content-addressed result cache relies on for replay fidelity.
func CanonicalizeViolations(vs []*sym.Violation) {
	sort.SliceStable(vs, func(i, j int) bool {
		li, lj := "", ""
		if vs[i].Info != nil {
			li = vs[i].Info.Location
		}
		if vs[j].Info != nil {
			lj = vs[j].Info.Location
		}
		if li != lj {
			return li < lj
		}
		if vs[i].AssertID != vs[j].AssertID {
			return vs[i].AssertID < vs[j].AssertID
		}
		return sym.FormatModel(vs[i].Model) < sym.FormatModel(vs[j].Model)
	})
}

// Summary renders a human-readable report.
func (r *Report) Summary() string {
	s := fmt.Sprintf("paths=%d instructions=%d solver-queries=%d",
		r.Metrics.Paths, r.Metrics.Instructions, r.Metrics.Solver.Queries)
	if r.Submodels > 0 {
		s += fmt.Sprintf(" submodels=%d", r.Submodels)
	}
	if r.Exhausted {
		s += " (EXHAUSTED)"
	}
	if len(r.Violations) == 0 {
		return "OK: all assertions hold; " + s
	}
	out := fmt.Sprintf("FAIL: %d assertion(s) violated; %s\n", len(r.Violations), s)
	for _, v := range r.Violations {
		src, loc := "?", "?"
		if v.Info != nil {
			src, loc = v.Info.Source, v.Info.Location
		}
		out += fmt.Sprintf("  assert #%d %q at %s\n    violated on %d path(s)\n    counterexample: %s\n",
			v.AssertID, src, loc, v.Count, sym.FormatModel(v.Model))
		if len(v.Trace) > 0 {
			out += fmt.Sprintf("    trace: %v\n", v.Trace)
		}
	}
	return out
}
