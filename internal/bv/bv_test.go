package bv

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestConstMasking(t *testing.T) {
	c := NewContext()
	e := c.Const(8, 0x1ff)
	if e.Val != 0xff {
		t.Fatalf("Const(8, 0x1ff).Val = %#x, want 0xff", e.Val)
	}
	if got := c.Const(64, ^uint64(0)); got.Val != ^uint64(0) {
		t.Fatalf("64-bit all-ones mangled: %#x", got.Val)
	}
}

func TestInterning(t *testing.T) {
	c := NewContext()
	x := c.Var("x", 16)
	y := c.Var("y", 16)
	a := c.Add(x, y)
	b := c.Add(x, y)
	if a != b {
		t.Fatal("identical Add expressions not interned to same pointer")
	}
	// Commutative canonicalization: x+y and y+x intern identically.
	if c.Add(y, x) != a {
		t.Fatal("commuted Add not canonicalized")
	}
	if c.And(y, x) != c.And(x, y) || c.Or(y, x) != c.Or(x, y) ||
		c.Xor(y, x) != c.Xor(x, y) || c.Mul(y, x) != c.Mul(x, y) {
		t.Fatal("commuted bitwise/mul ops not canonicalized")
	}
	if c.Eq(x, y) != c.Eq(y, x) {
		t.Fatal("commuted Eq not canonicalized")
	}

	// Variables and structural nodes draw IDs from one counter, in
	// construction order; repeats take none. Commutative operand order
	// and the solver's exact-tier keys follow these IDs.
	d := NewContext()
	k := d.Const(8, 5)
	v := d.Var("v", 8)
	sum := d.Add(v, k)
	u := d.Var("u", 8)
	d.Var("v", 8)
	d.Const(8, 5)
	prod := d.Mul(u, v)
	ext := d.Extract(u, 3, 0)
	got := []uint64{k.ID(), v.ID(), sum.ID(), u.ID(), prod.ID(), ext.ID()}
	want := []uint64{1, 2, 3, 4, 5, 6}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("IDs %v, want %v", got, want)
		}
	}
	if prod.Args[0] != v || prod.Args[1] != u {
		t.Fatalf("u*v operands ordered %v, %v; want the older v first", prod.Args[0], prod.Args[1])
	}
	if d.Extract(u, 3, 0) != ext || d.Extract(u, 4, 1) == ext {
		t.Fatal("extract bounds not part of the interning key")
	}
}

func TestVarRedeclarePanics(t *testing.T) {
	c := NewContext()
	c.Var("x", 8)
	defer func() {
		if recover() == nil {
			t.Fatal("redeclaring x at a new width did not panic")
		}
	}()
	c.Var("x", 16)
}

func TestIdentities(t *testing.T) {
	c := NewContext()
	x := c.Var("x", 32)
	zero := c.Const(32, 0)
	ones := c.Const(32, Mask(32))
	one := c.Const(32, 1)

	cases := []struct {
		name string
		got  *Expr
		want *Expr
	}{
		{"x+0", c.Add(x, zero), x},
		{"x-0", c.Sub(x, zero), x},
		{"x-x", c.Sub(x, x), zero},
		{"x*0", c.Mul(x, zero), zero},
		{"x*1", c.Mul(x, one), x},
		{"x&0", c.And(x, zero), zero},
		{"x&~0", c.And(x, ones), x},
		{"x|0", c.Or(x, zero), x},
		{"x|~0", c.Or(x, ones), ones},
		{"x^0", c.Xor(x, zero), x},
		{"x^x", c.Xor(x, x), zero},
		{"x^~0", c.Xor(x, ones), c.Not(x)},
		{"~~x", c.Not(c.Not(x)), x},
		{"x&~x", c.And(x, c.Not(x)), zero},
		{"x|~x", c.Or(x, c.Not(x)), ones},
		{"x/1", c.UDiv(x, one), x},
		{"x%1", c.UMod(x, one), zero},
		{"x<<0", c.Shl(x, zero), x},
		{"x>>0", c.Lshr(x, zero), x},
		{"x==x", c.Eq(x, x), c.True()},
		{"x<x", c.Ult(x, x), c.False()},
		{"x<=x", c.Ule(x, x), c.True()},
		{"x<0", c.Ult(x, zero), c.False()},
		{"0<=x", c.Ule(zero, x), c.True()},
		{"(x+1)+2", c.Add(c.Add(x, one), c.Const(32, 2)), c.Add(x, c.Const(32, 3))},
	}
	for _, tc := range cases {
		if tc.got != tc.want {
			t.Errorf("%s: got %s, want %s", tc.name, tc.got, tc.want)
		}
	}
}

func TestIteSimplification(t *testing.T) {
	c := NewContext()
	p := c.Var("p", 1)
	x := c.Var("x", 8)
	y := c.Var("y", 8)
	if c.Ite(c.True(), x, y) != x || c.Ite(c.False(), x, y) != y {
		t.Fatal("constant-condition Ite not folded")
	}
	if c.Ite(p, x, x) != x {
		t.Fatal("Ite with equal branches not folded")
	}
	if c.Ite(p, c.True(), c.False()) != p {
		t.Fatal("boolean Ite(p,1,0) != p")
	}
	if c.Ite(p, c.False(), c.True()) != c.Not(p) {
		t.Fatal("boolean Ite(p,0,1) != ~p")
	}
}

func TestWidth1Eq(t *testing.T) {
	c := NewContext()
	p := c.Var("p", 1)
	if c.Eq(p, c.True()) != p {
		t.Fatal("p == 1 should simplify to p")
	}
	if c.Eq(p, c.False()) != c.Not(p) {
		t.Fatal("p == 0 should simplify to ~p")
	}
}

func TestExtractConcat(t *testing.T) {
	c := NewContext()
	x := c.Var("x", 16)
	y := c.Var("y", 8)
	cc := c.Concat(x, y) // width 24, x in bits 23..8
	if cc.Width != 24 {
		t.Fatalf("concat width = %d, want 24", cc.Width)
	}
	if c.Extract(cc, 7, 0) != y {
		t.Fatal("extract of low concat part should return y")
	}
	if c.Extract(cc, 23, 8) != x {
		t.Fatal("extract of high concat part should return x")
	}
	z := c.ZeroExt(y, 32)
	if c.Extract(z, 7, 0) != y {
		t.Fatal("extract of zext payload should return y")
	}
	if got := c.Extract(z, 31, 8); !got.IsConst() || got.Val != 0 {
		t.Fatalf("extract of zext padding should be 0, got %s", got)
	}
	// Nested extract composes.
	e1 := c.Extract(x, 11, 4)
	if c.Extract(e1, 3, 0) != c.Extract(x, 7, 4) {
		t.Fatal("nested extract did not compose")
	}
}

func TestResize(t *testing.T) {
	c := NewContext()
	x := c.Var("x", 16)
	if got := c.Resize(x, 16); got != x {
		t.Fatal("identity resize changed expr")
	}
	if got := c.Resize(x, 8); got != c.Extract(x, 7, 0) {
		t.Fatal("narrowing resize is not low extract")
	}
	if got := c.Resize(x, 32); got.Op != OpZext || got.Width != 32 {
		t.Fatal("widening resize is not zext")
	}
}

func TestEvalBasics(t *testing.T) {
	c := NewContext()
	x := c.Var("x", 8)
	y := c.Var("y", 8)
	env := map[string]uint64{"x": 200, "y": 100}
	cases := []struct {
		e    *Expr
		want uint64
	}{
		{c.Add(x, y), 44}, // 300 mod 256
		{c.Sub(y, x), 156},
		{c.Mul(x, y), (200 * 100) & 0xff},
		{c.UDiv(x, y), 2},
		{c.UMod(x, y), 0},
		{c.UDiv(x, c.Const(8, 0)), 0xff},
		{c.UMod(x, c.Const(8, 0)), 200},
		{c.Ult(y, x), 1},
		{c.Ule(x, y), 0},
		{c.Eq(x, c.Const(8, 200)), 1},
		{c.Shl(y, c.Const(8, 1)), 200},
		{c.Lshr(x, c.Const(8, 3)), 25},
		{c.Ite(c.Ult(y, x), x, y), 200},
		{c.Concat(c.Extract(x, 3, 0), c.Extract(y, 3, 0)), (200&0xf)<<4 | 100&0xf},
	}
	for i, tc := range cases {
		if got := Eval(tc.e, env); got != tc.want {
			t.Errorf("case %d (%s): got %d, want %d", i, tc.e, got, tc.want)
		}
	}
}

// randExpr builds a random expression over variables a,b,c at the given
// width, with depth-bounded structure. Used by the equivalence properties.
func randExpr(c *Context, r *rand.Rand, width, depth int) *Expr {
	if depth == 0 || r.Intn(4) == 0 {
		switch r.Intn(3) {
		case 0:
			return c.Const(width, r.Uint64())
		case 1:
			return c.Var("a", width)
		default:
			return c.Var("b", width)
		}
	}
	a := randExpr(c, r, width, depth-1)
	b := randExpr(c, r, width, depth-1)
	switch r.Intn(12) {
	case 0:
		return c.Add(a, b)
	case 1:
		return c.Sub(a, b)
	case 2:
		return c.Mul(a, b)
	case 3:
		return c.And(a, b)
	case 4:
		return c.Or(a, b)
	case 5:
		return c.Xor(a, b)
	case 6:
		return c.Not(a)
	case 7:
		return c.Ite(c.NonZero(randExpr(c, r, width, depth-1)), a, b)
	case 8:
		return c.UDiv(a, b)
	case 9:
		return c.UMod(a, b)
	case 10:
		return c.Shl(a, b)
	default:
		return c.Lshr(a, b)
	}
}

// TestSimplifierSoundness: smart-constructor output must agree with a
// rebuild through an un-simplifying reference path. Since constructors are
// the only way to build nodes, we instead check the algebra directly:
// rewriting sub-expressions by their evaluated constants never changes the
// value of the whole expression.
func TestSimplifierSoundness(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 300; i++ {
		c := NewContext()
		width := 1 + r.Intn(64)
		e := randExpr(c, r, width, 4)
		env := map[string]uint64{"a": r.Uint64(), "b": r.Uint64()}
		v1 := Eval(e, env)
		// Substituting the environment via constants must evaluate
		// to the same value (exercises every folding rule).
		folded := substConst(c, e, env)
		if !folded.IsConst() {
			t.Fatalf("substituting all vars did not fold to const: %s", folded)
		}
		if folded.Val != v1 {
			t.Fatalf("width %d: Eval=%d but const-fold=%d for %s", width, v1, folded.Val, e)
		}
	}
}

// substConst rebuilds e with variables replaced by constants from env.
func substConst(c *Context, e *Expr, env map[string]uint64) *Expr {
	switch e.Op {
	case OpConst:
		return e
	case OpVar:
		return c.Const(e.Width, env[e.Name])
	}
	args := make([]*Expr, len(e.Args))
	for i, a := range e.Args {
		args[i] = substConst(c, a, env)
	}
	switch e.Op {
	case OpNot:
		return c.Not(args[0])
	case OpAnd:
		return c.And(args[0], args[1])
	case OpOr:
		return c.Or(args[0], args[1])
	case OpXor:
		return c.Xor(args[0], args[1])
	case OpAdd:
		return c.Add(args[0], args[1])
	case OpSub:
		return c.Sub(args[0], args[1])
	case OpMul:
		return c.Mul(args[0], args[1])
	case OpUDiv:
		return c.UDiv(args[0], args[1])
	case OpUMod:
		return c.UMod(args[0], args[1])
	case OpShl:
		return c.Shl(args[0], args[1])
	case OpLshr:
		return c.Lshr(args[0], args[1])
	case OpEq:
		return c.Eq(args[0], args[1])
	case OpUlt:
		return c.Ult(args[0], args[1])
	case OpUle:
		return c.Ule(args[0], args[1])
	case OpIte:
		return c.Ite(args[0], args[1], args[2])
	case OpConcat:
		return c.Concat(args[0], args[1])
	case OpExtract:
		return c.Extract(args[0], e.Hi, e.Lo)
	case OpZext:
		return c.ZeroExt(args[0], e.Width)
	default:
		panic("unreachable")
	}
}

// Property: comparison normalization (Ugt/Uge) agrees with direct uint64
// comparison at width 64.
func TestComparisonNormalizationProperty(t *testing.T) {
	f := func(a, b uint64) bool {
		c := NewContext()
		x, y := c.Var("x", 64), c.Var("y", 64)
		env := map[string]uint64{"x": a, "y": b}
		gt := Eval(c.Ugt(x, y), env) == 1
		ge := Eval(c.Uge(x, y), env) == 1
		return gt == (a > b) && ge == (a >= b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Vars returns each free variable exactly once.
func TestVarsProperty(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 100; i++ {
		c := NewContext()
		e := randExpr(c, r, 16, 4)
		names := Vars(e, nil)
		seen := map[string]bool{}
		for _, n := range names {
			if seen[n] {
				t.Fatalf("duplicate var %q in Vars result", n)
			}
			seen[n] = true
			if !ContainsVar(e, n) {
				t.Fatalf("Vars reported %q but ContainsVar disagrees", n)
			}
		}
	}
}

func TestSize(t *testing.T) {
	c := NewContext()
	x := c.Var("x", 8)
	e := c.Add(x, x) // DAG: add node + one var node
	if got := Size(e); got != 2 {
		t.Fatalf("Size = %d, want 2 (shared var counted once)", got)
	}
}

func TestStringRendering(t *testing.T) {
	c := NewContext()
	x := c.Var("ttl", 8)
	e := c.Ugt(x, c.Const(8, 0))
	if got := e.String(); got != "(0x0 < ttl)" {
		t.Fatalf("String() = %q", got)
	}
}
