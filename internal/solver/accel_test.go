package solver

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"p4assert/internal/bv"
)

// --- probeBounds width-boundary hardening -------------------------------

func TestProbeBoundsOverflowGtMax(t *testing.T) {
	ctx := bv.NewContext()
	c := New(ctx)
	x := ctx.Var("x", 8)
	// !(x <= 255) ≡ x > 255: impossible for width 8. Before the wrap
	// guard, lo++ overflowed to 0 and the conflict went unnoticed.
	res := c.Check([]*bv.Expr{ctx.Not(ctx.Ule(x, ctx.Const(8, 255)))})
	if res.Sat {
		t.Fatalf("x > max(width) must be UNSAT, got %+v", res)
	}
	if !res.Quick || c.Stats.FullQueries != 0 {
		t.Fatalf("domain conflict should be refuted without search: %+v", c.Stats)
	}
}

func TestProbeBoundsOverflowMaxLtVar(t *testing.T) {
	ctx := bv.NewContext()
	c := New(ctx)
	x := ctx.Var("x", 8)
	// 255 < x on width 8 hits the same lo++ wrap on the const<var side.
	res := c.Check([]*bv.Expr{ctx.Ult(ctx.Const(8, 255), x)})
	if res.Sat {
		t.Fatalf("max < x must be UNSAT, got %+v", res)
	}
	if !res.Quick || c.Stats.FullQueries != 0 {
		t.Fatalf("domain conflict should be refuted without search: %+v", c.Stats)
	}
}

func TestProbeBoundsMaxBoundaryStillSat(t *testing.T) {
	ctx := bv.NewContext()
	c := New(ctx)
	x := ctx.Var("x", 8)
	// x >= 255 is satisfiable exactly at the boundary; the witness must
	// stay inside the domain.
	res := c.Check([]*bv.Expr{ctx.Uge(x, ctx.Const(8, 255))})
	if !res.Sat {
		t.Fatal("x >= max must be SAT")
	}
	if res.Model["x"] != 255 {
		t.Fatalf("witness left the domain: %v", res.Model)
	}
}

func TestProbeBoundsFullyExcludedRange(t *testing.T) {
	ctx := bv.NewContext()
	c := New(ctx)
	x := ctx.Var("x", 8)
	// x >= 254 with both remaining values excluded. The old witness loop
	// stopped at hi and proposed an excluded value, deferring to a full
	// bit-blast; the saturation check refutes it directly.
	res := c.Check([]*bv.Expr{
		ctx.Uge(x, ctx.Const(8, 254)),
		ctx.Ne(x, ctx.Const(8, 254)),
		ctx.Ne(x, ctx.Const(8, 255)),
	})
	if res.Sat {
		t.Fatalf("fully excluded range must be UNSAT, got %+v", res)
	}
	if !res.Quick || c.Stats.FullQueries != 0 {
		t.Fatalf("exclusion saturation should be refuted without search: %+v", c.Stats)
	}
}

func TestProbeBoundsEqOutsideBounds(t *testing.T) {
	ctx := bv.NewContext()
	c := New(ctx)
	x := ctx.Var("x", 8)
	res := c.Check([]*bv.Expr{
		ctx.Eq(x, ctx.Const(8, 5)),
		ctx.Ult(x, ctx.Const(8, 3)),
	})
	if res.Sat {
		t.Fatalf("eq outside bounds must be UNSAT, got %+v", res)
	}
	if !res.Quick || c.Stats.FullQueries != 0 {
		t.Fatalf("eq/bound conflict should be refuted without search: %+v", c.Stats)
	}
}

// --- memo ------------------------------------------------------------------

// fullQuery builds a constraint set no quick tier can answer, over the
// named variables (forces layer 3).
func fullQuery(ctx *bv.Context, xn, yn string, sum uint64) []*bv.Expr {
	x := ctx.Var(xn, 8)
	y := ctx.Var(yn, 8)
	return []*bv.Expr{
		ctx.Eq(ctx.Add(x, y), ctx.Const(8, sum)),
		ctx.Ugt(x, y),
	}
}

func TestMemoReplaysVerdictModelAndStats(t *testing.T) {
	ctx := bv.NewContext()
	c := New(ctx)
	q := fullQuery(ctx, "x", "y", 7)
	first := c.Check(q)
	statsAfterFirst := c.Stats
	second := c.Check(q)
	if c.Stats.Accel.MemoHits != 1 {
		t.Fatalf("second identical query should hit the memo: %+v", c.Stats.Accel)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("memo replay changed the result:\nfirst:  %+v\nsecond: %+v", first, second)
	}
	// The replay must reproduce the exact comparable stats delta.
	if c.Stats.FullQueries != 2*statsAfterFirst.FullQueries ||
		c.Stats.BitblastVars != 2*statsAfterFirst.BitblastVars ||
		c.Stats.BitblastClauses != 2*statsAfterFirst.BitblastClauses {
		t.Fatalf("memo replay skewed comparable stats: after first %+v, after second %+v",
			statsAfterFirst, c.Stats)
	}
}

func TestSharedMemoTransfersAcrossRenaming(t *testing.T) {
	shared := NewMemo(64)
	ctx := bv.NewContext()

	a := New(ctx)
	a.Shared = shared
	resA := a.Check(fullQuery(ctx, "x", "y", 7))

	b := New(ctx)
	b.Shared = shared
	// Alpha-renamed query: same shape, different variable names.
	resB := b.Check(fullQuery(ctx, "u", "v", 7))

	if b.Stats.Accel.MemoHits != 1 || b.Stats.Accel.MemoSharedHits != 1 {
		t.Fatalf("renamed query should hit the shared memo: %+v", b.Stats.Accel)
	}
	if resB.Model["u"] != resA.Model["x"] || resB.Model["v"] != resA.Model["y"] {
		t.Fatalf("transferred model not renamed through the bijection: A=%v B=%v",
			resA.Model, resB.Model)
	}
	if a.Stats.FullQueries != b.Stats.FullQueries {
		t.Fatalf("replay must reproduce comparable stats: A=%+v B=%+v", a.Stats, b.Stats)
	}
}

// accelConfigs are the two solver modes: with the memo and without it.
var accelConfigs = []struct {
	name string
	cfg  Config
}{
	{"memo", Config{}},
	{"no-memo", Config{DisableMemo: true}},
}

// randomConstraint builds one width-4 constraint over vars drawn from
// names, mixing the op shapes the executor produces.
func randomConstraint(ctx *bv.Context, r *rand.Rand, names []string) *bv.Expr {
	v := func() *bv.Expr { return ctx.Var(names[r.Intn(len(names))], 4) }
	k := func() *bv.Expr { return ctx.Const(4, uint64(r.Intn(16))) }
	var e *bv.Expr
	switch r.Intn(8) {
	case 0:
		e = ctx.Eq(v(), k())
	case 1:
		e = ctx.Ne(v(), k())
	case 2:
		e = ctx.Ult(v(), k())
	case 3:
		e = ctx.Ule(k(), v())
	case 4:
		e = ctx.Eq(ctx.Add(v(), v()), k())
	case 5:
		e = ctx.Ult(ctx.Xor(v(), v()), k())
	case 6:
		e = ctx.And(ctx.Ule(v(), k()), ctx.Ne(v(), k()))
	default:
		e = ctx.Not(ctx.Ult(v(), k()))
	}
	return e
}

// TestAccelerationEquivalenceProperty is the tier-drift property test:
// over random query sequences (with shared prefixes, like path-condition
// stacks), both solver modes must produce the identical Result
// sequence — verdict, quickness, witness — and identical comparable
// stats; every SAT witness must satisfy bv.Eval on all conjuncts; and
// every verdict must agree with enumeration ground truth.
func TestAccelerationEquivalenceProperty(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	names := []string{"a", "b", "c"}
	for iter := 0; iter < 40; iter++ {
		ctx := bv.NewContext()
		// A random "path": a growing prefix plus per-step extras.
		var prefix []*bv.Expr
		var queries [][]*bv.Expr
		for step := 0; step < 4; step++ {
			if step > 0 || r.Intn(2) == 0 {
				prefix = append(prefix, randomConstraint(ctx, r, names))
			}
			q := append([]*bv.Expr(nil), prefix...)
			for j := r.Intn(2); j > 0; j-- {
				q = append(q, randomConstraint(ctx, r, names))
			}
			queries = append(queries, q)
		}

		type outcome struct {
			res   []Result
			stats Stats
		}
		outs := make([]outcome, len(accelConfigs))
		for ci, mode := range accelConfigs {
			chk := New(ctx)
			chk.Cfg = mode.cfg
			var seq []Result
			for _, q := range queries {
				seq = append(seq, chk.Check(q))
			}
			st := chk.Stats
			st.Accel = AccelStats{} // non-comparable by design
			outs[ci] = outcome{res: seq, stats: st}
		}

		for qi, q := range queries {
			want := bruteSat(q, names)
			for ci, mode := range accelConfigs {
				res := outs[ci].res[qi]
				if res.Sat != want {
					t.Fatalf("iter %d query %d mode %s: Sat=%v brute=%v (%s)",
						iter, qi, mode.name, res.Sat, want, dumpQuery(q))
				}
				if res.Sat && !evalAll(q, res.Model) {
					t.Fatalf("iter %d query %d mode %s: witness %v violates a conjunct (%s)",
						iter, qi, mode.name, res.Model, dumpQuery(q))
				}
			}
		}
		for ci := 1; ci < len(accelConfigs); ci++ {
			if !reflect.DeepEqual(outs[0].res, outs[ci].res) {
				t.Fatalf("iter %d: mode %s diverged from %s:\n%+v\nvs\n%+v",
					iter, accelConfigs[ci].name, accelConfigs[0].name, outs[ci].res, outs[0].res)
			}
			if outs[0].stats != outs[ci].stats {
				t.Fatalf("iter %d: mode %s comparable stats diverged: %+v vs %+v",
					iter, accelConfigs[ci].name, outs[ci].stats, outs[0].stats)
			}
		}
	}
}

// bruteSat enumerates all assignments of the width-4 variables.
func bruteSat(q []*bv.Expr, names []string) bool {
	env := map[string]uint64{}
	var rec func(i int) bool
	rec = func(i int) bool {
		if i == len(names) {
			return evalAll(q, env)
		}
		for v := uint64(0); v < 16; v++ {
			env[names[i]] = v
			if rec(i + 1) {
				return true
			}
		}
		return false
	}
	return rec(0)
}

func dumpQuery(q []*bv.Expr) string {
	s := ""
	for i, e := range q {
		if i > 0 {
			s += " ∧ "
		}
		s += fmt.Sprint(e)
	}
	return s
}
