package sym

import (
	"testing"
	"time"

	"p4assert/internal/model"
)

// buildIf returns a model with one symbolic input branching N-deep.
func chainModel(depth int) *model.Program {
	p := model.NewProgram()
	p.AddGlobal("in", 8, true, 0)
	p.AddGlobal("out", 8, false, 0)
	var body []model.Stmt
	for i := 0; i < depth; i++ {
		body = append(body, &model.If{
			Cond: &model.Bin{Op: model.OpEq,
				X: &model.Bin{Op: model.OpAnd, X: &model.Ref{Name: "in"}, Y: &model.Const{Width: 8, Val: 1 << uint(i)}},
				Y: &model.Const{Width: 8, Val: 0}},
			Then: []model.Stmt{&model.Assign{LHS: "out", RHS: &model.Const{Width: 8, Val: uint64(i)}}},
			Else: []model.Stmt{&model.Assign{LHS: "out", RHS: &model.Const{Width: 8, Val: uint64(i + 100)}}},
		})
	}
	p.AddFunc(&model.Func{Name: "main", Body: body})
	p.Entry = []string{"main"}
	return p
}

func TestPathExplosion(t *testing.T) {
	for depth := 1; depth <= 6; depth++ {
		res, err := Execute(chainModel(depth), Options{})
		if err != nil {
			t.Fatal(err)
		}
		if want := int64(1) << uint(depth); res.Metrics.Paths != want {
			t.Fatalf("depth %d: %d paths, want %d", depth, res.Metrics.Paths, want)
		}
	}
}

func TestInfeasiblePruning(t *testing.T) {
	p := model.NewProgram()
	p.AddGlobal("x", 8, true, 0)
	p.AddFunc(&model.Func{Name: "main", Body: []model.Stmt{
		&model.Assume{Cond: &model.Bin{Op: model.OpEq, X: &model.Ref{Name: "x"}, Y: &model.Const{Width: 8, Val: 5}}},
		&model.If{
			Cond: &model.Bin{Op: model.OpEq, X: &model.Ref{Name: "x"}, Y: &model.Const{Width: 8, Val: 6}},
			Then: []model.Stmt{&model.AssertCheck{ID: 0, Cond: &model.Const{Width: 1, Val: 0}}},
		},
	}})
	p.Entry = []string{"main"}
	p.Asserts = []*model.AssertInfo{{ID: 0, Source: "false"}}
	res, err := Execute(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The then-branch (x==6) contradicts the assumption (x==5): the
	// always-false assertion inside is unreachable.
	if len(res.Violations) != 0 {
		t.Fatal("assertion in infeasible branch must not fire")
	}
	if res.Metrics.KilledInfeasible == 0 {
		t.Fatal("infeasible branch should be pruned")
	}
	if res.Metrics.Paths != 1 {
		t.Fatalf("paths = %d, want 1", res.Metrics.Paths)
	}
}

func TestAssertViolationModel(t *testing.T) {
	p := model.NewProgram()
	p.AddGlobal("x", 16, true, 0)
	p.AddFunc(&model.Func{Name: "main", Body: []model.Stmt{
		&model.AssertCheck{ID: 0, Cond: &model.Bin{Op: model.OpNe,
			X: &model.Ref{Name: "x"}, Y: &model.Const{Width: 16, Val: 0xdead}}},
	}})
	p.Entry = []string{"main"}
	p.Asserts = []*model.AssertInfo{{ID: 0, Source: "x != 0xdead"}}
	res, err := Execute(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) != 1 {
		t.Fatal("expected one violation")
	}
	if res.Violations[0].Model["x"] != 0xdead {
		t.Fatalf("counterexample x = %#x, want 0xdead", res.Violations[0].Model["x"])
	}
	if !res.Violated(0) || res.Violated(1) {
		t.Fatal("Violated() lookup wrong")
	}
}

func TestAssertPassingSideContinues(t *testing.T) {
	// After reporting a violation the executor explores the passing side,
	// so a second assertion downstream is still checked.
	p := model.NewProgram()
	p.AddGlobal("x", 8, true, 0)
	p.AddFunc(&model.Func{Name: "main", Body: []model.Stmt{
		&model.AssertCheck{ID: 0, Cond: &model.Bin{Op: model.OpLt,
			X: &model.Ref{Name: "x"}, Y: &model.Const{Width: 8, Val: 10}}},
		&model.AssertCheck{ID: 1, Cond: &model.Bin{Op: model.OpLt,
			X: &model.Ref{Name: "x"}, Y: &model.Const{Width: 8, Val: 5}}},
	}})
	p.Entry = []string{"main"}
	p.Asserts = []*model.AssertInfo{{ID: 0}, {ID: 1}}
	res, err := Execute(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Violated(0) || !res.Violated(1) {
		t.Fatalf("both assertions should be violated, got %v", res.Violations)
	}
	// The second counterexample must respect the first assertion's
	// passing constraint (x < 10).
	for _, v := range res.Violations {
		if v.AssertID == 1 && v.Model["x"] >= 10 {
			t.Fatalf("second violation model x=%d ignores first constraint", v.Model["x"])
		}
	}
}

func TestForkExploresAllBranches(t *testing.T) {
	p := model.NewProgram()
	p.AddGlobal("sel", 8, false, 0)
	fork := &model.Fork{Selector: "sel", Labels: []string{"a", "b", "c"}}
	for i := 0; i < 3; i++ {
		fork.Branches = append(fork.Branches, []model.Stmt{
			&model.Assign{LHS: "sel", RHS: &model.Const{Width: 8, Val: uint64(i)}},
		})
	}
	p.AddFunc(&model.Func{Name: "main", Body: []model.Stmt{fork}})
	p.Entry = []string{"main"}
	res, err := Execute(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.Paths != 3 {
		t.Fatalf("paths = %d, want 3", res.Metrics.Paths)
	}
}

func TestExitSkipsRestOfBlockOnly(t *testing.T) {
	// Exit terminates the current entry function; later entry functions
	// still run (v1model: exit in ingress does not skip egress).
	p := model.NewProgram()
	p.AddGlobal("a", 8, false, 0)
	p.AddGlobal("b", 8, false, 0)
	p.AddFunc(&model.Func{Name: "ingress", Body: []model.Stmt{
		&model.Exit{},
		&model.Assign{LHS: "a", RHS: &model.Const{Width: 8, Val: 1}},
	}})
	p.AddFunc(&model.Func{Name: "egress", Body: []model.Stmt{
		&model.Assign{LHS: "b", RHS: &model.Const{Width: 8, Val: 1}},
		&model.AssertCheck{ID: 0, Cond: &model.Bin{Op: model.OpEq,
			X: &model.Ref{Name: "a"}, Y: &model.Const{Width: 8, Val: 0}}},
		&model.AssertCheck{ID: 1, Cond: &model.Bin{Op: model.OpEq,
			X: &model.Ref{Name: "b"}, Y: &model.Const{Width: 8, Val: 1}}},
	}})
	p.Entry = []string{"ingress", "egress"}
	p.Asserts = []*model.AssertInfo{{ID: 0}, {ID: 1}}
	res, err := Execute(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) != 0 {
		t.Fatalf("exit semantics wrong: %v", res.Violations)
	}
}

func TestHaltSkipsToChecks(t *testing.T) {
	p := model.NewProgram()
	p.AddGlobal("a", 8, false, 0)
	p.AddFunc(&model.Func{Name: "parser", Body: []model.Stmt{&model.Halt{}}})
	p.AddFunc(&model.Func{Name: "ingress", Body: []model.Stmt{
		&model.Assign{LHS: "a", RHS: &model.Const{Width: 8, Val: 1}},
	}})
	p.AddFunc(&model.Func{Name: "$checks", Body: []model.Stmt{
		&model.AssertCheck{ID: 0, Cond: &model.Bin{Op: model.OpEq,
			X: &model.Ref{Name: "a"}, Y: &model.Const{Width: 8, Val: 0}}},
	}})
	p.Entry = []string{"parser", "ingress", "$checks"}
	p.Asserts = []*model.AssertInfo{{ID: 0}}
	res, err := Execute(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) != 0 {
		t.Fatal("halt should skip ingress but still run $checks")
	}
}

func TestCallDepthBoundKillsPath(t *testing.T) {
	p := model.NewProgram()
	p.AddGlobal("n", 8, false, 0)
	p.AddFunc(&model.Func{Name: "loop", Body: []model.Stmt{
		&model.Assign{LHS: "n", RHS: &model.Bin{Op: model.OpAdd,
			X: &model.Ref{Name: "n"}, Y: &model.Const{Width: 8, Val: 1}}},
		&model.Call{Func: "loop"},
	}})
	p.AddFunc(&model.Func{Name: "$checks", Body: []model.Stmt{
		&model.AssertCheck{ID: 0, Cond: &model.Const{Width: 1, Val: 0}},
	}})
	p.Entry = []string{"loop", "$checks"}
	p.Asserts = []*model.AssertInfo{{ID: 0}}
	res, err := Execute(p, Options{MaxCallDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.BoundExceeded != 1 {
		t.Fatalf("BoundExceeded = %d, want 1", res.Metrics.BoundExceeded)
	}
	if res.Metrics.Paths != 0 {
		t.Fatal("truncated path must not count as completed")
	}
	if len(res.Violations) != 0 {
		t.Fatal("truncated path must not run final checks")
	}
}

func TestMakeSymbolicFreshness(t *testing.T) {
	// Two MakeSymbolics of the same variable are independent values.
	p := model.NewProgram()
	p.AddGlobal("v", 8, false, 0)
	p.AddGlobal("first", 8, false, 0)
	p.AddFunc(&model.Func{Name: "main", Body: []model.Stmt{
		&model.MakeSymbolic{Var: "v", Hint: "v"},
		&model.Assign{LHS: "first", RHS: &model.Ref{Name: "v"}},
		&model.MakeSymbolic{Var: "v", Hint: "v"},
		// first != v must be satisfiable (fresh value), so asserting
		// first == v must be violated.
		&model.AssertCheck{ID: 0, Cond: &model.Bin{Op: model.OpEq,
			X: &model.Ref{Name: "first"}, Y: &model.Ref{Name: "v"}}},
	}})
	p.Entry = []string{"main"}
	p.Asserts = []*model.AssertInfo{{ID: 0}}
	res, err := Execute(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) != 1 {
		t.Fatal("re-made symbolic value should be fresh")
	}
	m := res.Violations[0].Model
	if m["v#1"] == m["v#2"] {
		t.Fatalf("model should distinguish the two symbolics: %v", m)
	}
}

func TestForkIsolatesPathState(t *testing.T) {
	// One draw before an If and a Fork leaves four paths sharing one draw
	// counter. Each Fork sibling then writes the store, draws, and recurses
	// through rec to its own bound: side a past the call-depth bound
	// (killed), side b to exactly the bound (completes). Side a runs first
	// (DFS) and starts with a ResetDraws, so its second draw and side b's
	// first are both hint#2. Every assertion holds iff no sibling sees
	// another's writes, draws, draw resets or call depth.
	ref := func(n string) model.Expr { return &model.Ref{Name: n} }
	c8 := func(v uint64) model.Expr { return &model.Const{Width: 8, Val: v} }
	eq := func(x, y model.Expr) model.Expr { return &model.Bin{Op: model.OpEq, X: x, Y: y} }
	check := func(id int, cond model.Expr) model.Stmt { return &model.AssertCheck{ID: id, Cond: cond} }

	p := model.NewProgram()
	p.AddGlobal("in", 8, true, 0)
	// The symbolic global "hint#2" is the very variable the second draw of
	// hint "hint" yields: comparing a draw with it checks the draw's name.
	p.AddGlobal("hint#2", 8, true, 0)
	for _, g := range []string{"v", "w", "u", "x", "y", "k", "lim"} {
		p.AddGlobal(g, 8, false, 0)
	}
	p.AddFunc(&model.Func{Name: "main", Body: []model.Stmt{
		&model.MakeSymbolic{Var: "v", Hint: "hint"},
		&model.If{
			Cond: eq(ref("in"), c8(0)),
			Then: []model.Stmt{&model.Assign{LHS: "x", RHS: c8(1)}},
			Else: []model.Stmt{&model.Assign{LHS: "x", RHS: c8(2)}},
		},
		&model.Fork{Selector: "side", Labels: []string{"a", "b"}, Branches: [][]model.Stmt{
			{
				&model.Assign{LHS: "y", RHS: c8(10)},
				&model.Assign{LHS: "lim", RHS: c8(9)},
				&model.ResetDraws{},
				&model.MakeSymbolic{Var: "u", Hint: "hint"},
				check(0, eq(ref("u"), ref("v"))),
				&model.MakeSymbolic{Var: "w", Hint: "hint"},
				check(1, eq(ref("w"), ref("hint#2"))),
				&model.Call{Func: "rec"},
			},
			{
				check(2, eq(ref("y"), c8(0))),
				&model.Assign{LHS: "y", RHS: c8(20)},
				&model.Assign{LHS: "lim", RHS: c8(3)},
				&model.MakeSymbolic{Var: "w", Hint: "hint"},
				check(3, eq(ref("w"), ref("hint#2"))),
				&model.Call{Func: "rec"},
				check(4, eq(ref("k"), c8(3))),
				check(5, eq(ref("x"), &model.Cond{C: eq(ref("in"), c8(0)), T: c8(1), F: c8(2)})),
			},
		}},
	}})
	// rec recurses while ++k < lim.
	p.AddFunc(&model.Func{Name: "rec", Body: []model.Stmt{
		&model.Assign{LHS: "k", RHS: &model.Bin{Op: model.OpAdd, X: ref("k"), Y: c8(1)}},
		&model.If{
			Cond: &model.Bin{Op: model.OpLt, X: ref("k"), Y: ref("lim")},
			Then: []model.Stmt{&model.Call{Func: "rec"}},
		},
	}})
	p.Entry = []string{"main"}
	for id := 0; id <= 5; id++ {
		p.Asserts = append(p.Asserts, &model.AssertInfo{ID: id})
	}
	for _, opt := range []bool{false, true} {
		res, err := Execute(p, Options{MaxCallDepth: 3, Opt: opt})
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range res.Violations {
			t.Errorf("opt=%v: assertion %d violated on %d path(s), trace %v, model %v",
				opt, v.AssertID, v.Count, v.Trace, v.Model)
		}
		m := res.Metrics
		if m.Forks != 3 || m.Paths != 2 || m.BoundExceeded != 2 {
			t.Errorf("opt=%v: forks=%d paths=%d bound-exceeded=%d, want 3, 2, 2",
				opt, m.Forks, m.Paths, m.BoundExceeded)
		}
	}
}

func TestMaxPathsExhausts(t *testing.T) {
	res, err := Execute(chainModel(6), Options{MaxPaths: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Exhausted || res.Metrics.Paths != 5 {
		t.Fatalf("exhausted=%v paths=%d", res.Exhausted, res.Metrics.Paths)
	}
}

func TestDeadlineExhausts(t *testing.T) {
	res, err := Execute(chainModel(16), Options{Deadline: time.Now().Add(-time.Second)})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Exhausted {
		t.Fatal("past deadline should exhaust immediately")
	}
}

func TestInitialConstraints(t *testing.T) {
	p := chainModel(3)
	// Constrain in == 0: exactly one path remains.
	res, err := Execute(p, Options{InitialConstraints: []model.Expr{
		&model.Bin{Op: model.OpEq, X: &model.Ref{Name: "in"}, Y: &model.Const{Width: 8, Val: 0}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.Paths != 1 {
		t.Fatalf("paths = %d, want 1", res.Metrics.Paths)
	}
	// An unsatisfiable seed yields zero paths.
	res2, err := Execute(p, Options{InitialConstraints: []model.Expr{
		&model.Const{Width: 1, Val: 0},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Metrics.Paths != 0 {
		t.Fatal("unsat seed should yield no paths")
	}
}

func TestOptModeSameResults(t *testing.T) {
	p := chainModel(5)
	plain, err := Execute(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	opt, err := Execute(p, Options{Opt: true})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Metrics.Paths != opt.Metrics.Paths {
		t.Fatalf("Opt changed path count: %d vs %d", plain.Metrics.Paths, opt.Metrics.Paths)
	}
	if opt.Metrics.Solver.Queries > plain.Metrics.Solver.Queries {
		t.Fatalf("Opt should not add solver queries: %d vs %d",
			opt.Metrics.Solver.Queries, plain.Metrics.Solver.Queries)
	}
}

func TestFormatModelDeterministic(t *testing.T) {
	m := map[string]uint64{"b": 2, "a": 1, "c": 3}
	if FormatModel(m) != "a=0x1 b=0x2 c=0x3" {
		t.Fatalf("FormatModel = %q", FormatModel(m))
	}
}
