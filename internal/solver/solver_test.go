package solver

import (
	"maps"
	"math/rand"
	"testing"

	"p4assert/internal/bv"
)

func TestQuickUnsatOnFoldedFalse(t *testing.T) {
	ctx := bv.NewContext()
	c := New(ctx)
	res := c.Check([]*bv.Expr{ctx.False()})
	if res.Sat || !res.Quick {
		t.Fatalf("folded-false should be quick UNSAT, got %+v", res)
	}
}

func TestQuickSatOnAllTrue(t *testing.T) {
	ctx := bv.NewContext()
	c := New(ctx)
	res := c.Check([]*bv.Expr{ctx.True(), ctx.True()})
	if !res.Sat || !res.Quick {
		t.Fatalf("all-true should be quick SAT, got %+v", res)
	}
}

func TestEqualityGuessAvoidsSAT(t *testing.T) {
	ctx := bv.NewContext()
	c := New(ctx)
	et := ctx.Var("ethertype", 16)
	ttl := ctx.Var("ttl", 8)
	res := c.Check([]*bv.Expr{
		ctx.Eq(et, ctx.Const(16, 0x800)),
		ctx.Eq(ttl, ctx.Const(8, 64)),
	})
	if !res.Sat {
		t.Fatal("should be SAT")
	}
	if !res.Quick {
		t.Fatal("pure equality set should be answered by the guess layer")
	}
	if res.Model["ethertype"] != 0x800 || res.Model["ttl"] != 64 {
		t.Fatalf("guessed model wrong: %v", res.Model)
	}
	if c.Stats.FullQueries != 0 {
		t.Fatal("full SAT query should not have run")
	}
}

func TestFullSolveFallback(t *testing.T) {
	ctx := bv.NewContext()
	c := New(ctx)
	x := ctx.Var("x", 8)
	y := ctx.Var("y", 8)
	// Not guessable from equalities: x+y==7 && x>y.
	res := c.Check([]*bv.Expr{
		ctx.Eq(ctx.Add(x, y), ctx.Const(8, 7)),
		ctx.Ugt(x, y),
	})
	if !res.Sat {
		t.Fatal("should be SAT")
	}
	if (res.Model["x"]+res.Model["y"])&0xff != 7 || res.Model["x"] <= res.Model["y"] {
		t.Fatalf("model wrong: %v", res.Model)
	}
	if c.Stats.FullQueries != 1 {
		t.Fatalf("expected 1 full query, got %d", c.Stats.FullQueries)
	}
}

func TestUnsatConflict(t *testing.T) {
	ctx := bv.NewContext()
	c := New(ctx)
	x := ctx.Var("x", 8)
	res := c.Check([]*bv.Expr{
		ctx.Eq(x, ctx.Const(8, 3)),
		ctx.Ugt(x, ctx.Const(8, 10)),
	})
	if res.Sat {
		t.Fatal("x==3 && x>10 should be UNSAT")
	}
}

func TestBooleanFlagGuessing(t *testing.T) {
	ctx := bv.NewContext()
	c := New(ctx)
	fwd := ctx.Var("fwd", 1)
	drop := ctx.Var("drop", 1)
	res := c.Check([]*bv.Expr{fwd, ctx.Not(drop)})
	if !res.Sat || !res.Quick {
		t.Fatalf("boolean literals should be quick SAT, got %+v", res)
	}
	if res.Model["fwd"] != 1 || res.Model["drop"] != 0 {
		t.Fatalf("model wrong: %v", res.Model)
	}
}

// Property: Check's verdict matches brute force over two 6-bit variables
// for random constraint sets, and SAT models satisfy every constraint.
func TestCheckAgainstBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for iter := 0; iter < 80; iter++ {
		ctx := bv.NewContext()
		c := New(ctx)
		x := ctx.Var("x", 6)
		y := ctx.Var("y", 6)
		n := 1 + r.Intn(3)
		var cs []*bv.Expr
		for i := 0; i < n; i++ {
			lhs := x
			if r.Intn(2) == 0 {
				lhs = y
			}
			rhs := ctx.Const(6, uint64(r.Intn(64)))
			var e *bv.Expr
			switch r.Intn(4) {
			case 0:
				e = ctx.Eq(lhs, rhs)
			case 1:
				e = ctx.Ult(lhs, rhs)
			case 2:
				e = ctx.Eq(ctx.Add(x, y), rhs)
			default:
				e = ctx.Ne(ctx.Xor(x, y), rhs)
			}
			cs = append(cs, e)
		}
		want := false
		env := map[string]uint64{}
	brute:
		for a := uint64(0); a < 64; a++ {
			for b := uint64(0); b < 64; b++ {
				env["x"], env["y"] = a, b
				all := true
				for _, e := range cs {
					if bv.Eval(e, env) != 1 {
						all = false
						break
					}
				}
				if all {
					want = true
					break brute
				}
			}
		}
		res := c.Check(cs)
		if res.Sat != want {
			t.Fatalf("iter %d: Check=%v brute=%v", iter, res.Sat, want)
		}
		if res.Sat {
			for _, e := range cs {
				if bv.Eval(e, res.Model) != 1 {
					t.Fatalf("iter %d: model %v fails %s", iter, res.Model, e)
				}
			}
		}
	}
}

// TestCheckDoesNotRetainConstraints pins Check's aliasing contract: the
// executor reuses a path condition's backing array after backtracking, so
// overwriting the caller's slice after a Check must not corrupt the exact
// memo tier. A repeat of the original query must still hit it, and the
// overwritten query must be decided on its own.
func TestCheckDoesNotRetainConstraints(t *testing.T) {
	ctx := bv.NewContext()
	x, y := ctx.Var("x", 8), ctx.Var("y", 8)
	queries := [][]*bv.Expr{
		{ctx.Eq(x, ctx.Const(8, 1)), ctx.Eq(y, ctx.Const(8, 2))},
		{ctx.Eq(ctx.Mul(x, y), ctx.Const(8, 35)), ctx.Ult(ctx.Const(8, 5), x)},
	}
	for i, orig := range queries {
		c := New(ctx)
		q := append([]*bv.Expr(nil), orig...)
		first := c.Check(q)
		if !first.Sat {
			t.Fatalf("query %d: want SAT", i)
		}
		q[0], q[1] = ctx.Eq(x, ctx.Const(8, 3)), ctx.Eq(x, ctx.Const(8, 4))
		if res := c.Check(q); res.Sat || c.Stats.Accel.MemoHits != 0 {
			t.Fatalf("query %d: overwritten query: sat=%v memo hits=%d, want UNSAT without a hit",
				i, res.Sat, c.Stats.Accel.MemoHits)
		}
		again := c.Check(append([]*bv.Expr(nil), orig...))
		if c.Stats.Accel.MemoHits != 1 {
			t.Fatalf("query %d: repeat got %d memo hits, want 1 exact-tier hit", i, c.Stats.Accel.MemoHits)
		}
		if !again.Sat || !maps.Equal(again.Model, first.Model) {
			t.Fatalf("query %d: repeat %+v, want %+v", i, again, first)
		}
	}
}
