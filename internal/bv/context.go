package bv

import "fmt"

// Context interns expressions and provides the smart constructors. All
// constructors perform local algebraic simplification (constant folding,
// identity and absorption laws), which keeps the DAG small before any
// bit-blasting happens — the cheap half of what the paper gets from KLEE's
// expression canonicalizer.
//
// A Context is not safe for concurrent use.
type Context struct {
	nextID uint64
	intern map[exprKey]*Expr
	vars   map[string]*Expr
}

// exprKey identifies a non-variable node structurally, using child
// identities. Variables intern by name instead (Context.vars). tag packs
// the operator, width and extract bounds, each under 256, into one word:
// the key is five words with no padding, so it hashes as one block of
// memory.
type exprKey struct {
	tag        uint64
	val        uint64
	a0, a1, a2 uint64
}

func keyTag(op Op, width, hi, lo int) uint64 {
	return uint64(op) | uint64(width)<<8 | uint64(hi)<<16 | uint64(lo)<<24
}

// NewContext returns an empty expression context.
func NewContext() *Context {
	return &Context{
		intern: make(map[exprKey]*Expr, 1024),
		vars:   make(map[string]*Expr, 64),
	}
}

func (c *Context) get(k exprKey, mk func() *Expr) *Expr {
	if e, ok := c.intern[k]; ok {
		return e
	}
	e := mk()
	c.nextID++
	e.id = c.nextID
	c.intern[k] = e
	return e
}

func checkWidth(w int) {
	if w < 1 || w > MaxWidth {
		panic(fmt.Sprintf("bv: width %d out of range [1,%d]", w, MaxWidth))
	}
}

// Const returns the literal v at the given width, masked to width bits.
func (c *Context) Const(width int, v uint64) *Expr {
	checkWidth(width)
	v &= Mask(width)
	k := exprKey{tag: keyTag(OpConst, width, 0, 0), val: v}
	return c.get(k, func() *Expr {
		return &Expr{Op: OpConst, Width: width, Val: v}
	})
}

// Bool returns the width-1 constant for b.
func (c *Context) Bool(b bool) *Expr {
	if b {
		return c.Const(1, 1)
	}
	return c.Const(1, 0)
}

// True returns the width-1 constant 1.
func (c *Context) True() *Expr { return c.Const(1, 1) }

// False returns the width-1 constant 0.
func (c *Context) False() *Expr { return c.Const(1, 0) }

// Var returns the free variable with the given name and width. Asking for
// an existing name with a different width is a programming error.
func (c *Context) Var(name string, width int) *Expr {
	checkWidth(width)
	if e, ok := c.vars[name]; ok {
		if e.Width != width {
			panic(fmt.Sprintf("bv: variable %q redeclared with width %d (was %d)", name, width, e.Width))
		}
		return e
	}
	c.nextID++
	e := &Expr{Op: OpVar, Width: width, Name: name, id: c.nextID}
	c.vars[name] = e
	return e
}

func (c *Context) binKey(op Op, w int, a, b *Expr) exprKey {
	return exprKey{tag: keyTag(op, w, 0, 0), a0: a.id, a1: b.id}
}

func (c *Context) mkBin(op Op, w int, a, b *Expr) *Expr {
	return c.get(c.binKey(op, w, a, b), func() *Expr {
		return &Expr{Op: op, Width: w, Args: []*Expr{a, b}}
	})
}

func sameWidth(a, b *Expr) {
	if a.Width != b.Width {
		panic(fmt.Sprintf("bv: width mismatch %d vs %d in %s / %s", a.Width, b.Width, a, b))
	}
}

// Not returns the bitwise complement of a.
func (c *Context) Not(a *Expr) *Expr {
	if a.Op == OpConst {
		return c.Const(a.Width, ^a.Val)
	}
	if a.Op == OpNot {
		return a.Args[0] // ~~x = x
	}
	// De-Morgan-free simplification for comparisons at width 1:
	// ~(a==b) etc. stays as-is; bitblast handles it cheaply.
	k := exprKey{tag: keyTag(OpNot, a.Width, 0, 0), a0: a.id}
	return c.get(k, func() *Expr {
		return &Expr{Op: OpNot, Width: a.Width, Args: []*Expr{a}}
	})
}

// And returns the bitwise conjunction of a and b.
func (c *Context) And(a, b *Expr) *Expr {
	sameWidth(a, b)
	if a.Op == OpConst && b.Op == OpConst {
		return c.Const(a.Width, a.Val&b.Val)
	}
	if a.Op == OpConst {
		a, b = b, a
	}
	if b.Op == OpConst {
		switch b.Val {
		case 0:
			return b // x & 0 = 0
		case Mask(a.Width):
			return a // x & ~0 = x
		}
	}
	if a == b {
		return a
	}
	if a.Op == OpNot && a.Args[0] == b || b.Op == OpNot && b.Args[0] == a {
		return c.Const(a.Width, 0)
	}
	if a.id > b.id {
		a, b = b, a // commutative: canonical operand order
	}
	return c.mkBin(OpAnd, a.Width, a, b)
}

// Or returns the bitwise disjunction of a and b.
func (c *Context) Or(a, b *Expr) *Expr {
	sameWidth(a, b)
	if a.Op == OpConst && b.Op == OpConst {
		return c.Const(a.Width, a.Val|b.Val)
	}
	if a.Op == OpConst {
		a, b = b, a
	}
	if b.Op == OpConst {
		switch b.Val {
		case 0:
			return a // x | 0 = x
		case Mask(a.Width):
			return b // x | ~0 = ~0
		}
	}
	if a == b {
		return a
	}
	if a.Op == OpNot && a.Args[0] == b || b.Op == OpNot && b.Args[0] == a {
		return c.Const(a.Width, Mask(a.Width))
	}
	if a.id > b.id {
		a, b = b, a
	}
	return c.mkBin(OpOr, a.Width, a, b)
}

// Xor returns the bitwise exclusive-or of a and b.
func (c *Context) Xor(a, b *Expr) *Expr {
	sameWidth(a, b)
	if a.Op == OpConst && b.Op == OpConst {
		return c.Const(a.Width, a.Val^b.Val)
	}
	if a.Op == OpConst {
		a, b = b, a
	}
	if b.Op == OpConst {
		switch b.Val {
		case 0:
			return a // x ^ 0 = x
		case Mask(a.Width):
			return c.Not(a) // x ^ ~0 = ~x
		}
	}
	if a == b {
		return c.Const(a.Width, 0)
	}
	if a.id > b.id {
		a, b = b, a
	}
	return c.mkBin(OpXor, a.Width, a, b)
}

// Add returns a+b modulo 2^width.
func (c *Context) Add(a, b *Expr) *Expr {
	sameWidth(a, b)
	if a.Op == OpConst && b.Op == OpConst {
		return c.Const(a.Width, a.Val+b.Val)
	}
	if a.Op == OpConst {
		a, b = b, a
	}
	if b.Op == OpConst && b.Val == 0 {
		return a // x + 0 = x
	}
	// (x + c1) + c2 = x + (c1+c2)
	if b.Op == OpConst && a.Op == OpAdd && a.Args[1].Op == OpConst {
		return c.Add(a.Args[0], c.Const(a.Width, a.Args[1].Val+b.Val))
	}
	if a.id > b.id && b.Op != OpConst {
		a, b = b, a
	}
	return c.mkBin(OpAdd, a.Width, a, b)
}

// Sub returns a-b modulo 2^width.
func (c *Context) Sub(a, b *Expr) *Expr {
	sameWidth(a, b)
	if a.Op == OpConst && b.Op == OpConst {
		return c.Const(a.Width, a.Val-b.Val)
	}
	if b.Op == OpConst && b.Val == 0 {
		return a // x - 0 = x
	}
	if a == b {
		return c.Const(a.Width, 0)
	}
	if b.Op == OpConst {
		// x - c = x + (-c): reuse Add's reassociation.
		return c.Add(a, c.Const(a.Width, -b.Val))
	}
	return c.mkBin(OpSub, a.Width, a, b)
}

// Mul returns a*b modulo 2^width.
func (c *Context) Mul(a, b *Expr) *Expr {
	sameWidth(a, b)
	if a.Op == OpConst && b.Op == OpConst {
		return c.Const(a.Width, a.Val*b.Val)
	}
	if a.Op == OpConst {
		a, b = b, a
	}
	if b.Op == OpConst {
		switch b.Val {
		case 0:
			return b // x * 0 = 0
		case 1:
			return a // x * 1 = x
		}
	}
	if a.id > b.id && b.Op != OpConst {
		a, b = b, a
	}
	return c.mkBin(OpMul, a.Width, a, b)
}

// UDiv returns a/b (unsigned); division by zero yields all-ones per SMT-LIB.
func (c *Context) UDiv(a, b *Expr) *Expr {
	sameWidth(a, b)
	if a.Op == OpConst && b.Op == OpConst {
		if b.Val == 0 {
			return c.Const(a.Width, Mask(a.Width))
		}
		return c.Const(a.Width, a.Val/b.Val)
	}
	if b.Op == OpConst && b.Val == 1 {
		return a // x / 1 = x
	}
	return c.mkBin(OpUDiv, a.Width, a, b)
}

// UMod returns a%b (unsigned); x%0 = x per SMT-LIB.
func (c *Context) UMod(a, b *Expr) *Expr {
	sameWidth(a, b)
	if a.Op == OpConst && b.Op == OpConst {
		if b.Val == 0 {
			return a
		}
		return c.Const(a.Width, a.Val%b.Val)
	}
	if b.Op == OpConst && b.Val == 1 {
		return c.Const(a.Width, 0) // x % 1 = 0
	}
	return c.mkBin(OpUMod, a.Width, a, b)
}

// Shl returns a << b, with shifts ≥ width yielding zero.
func (c *Context) Shl(a, b *Expr) *Expr {
	sameWidth(a, b)
	if a.Op == OpConst && b.Op == OpConst {
		if b.Val >= uint64(a.Width) {
			return c.Const(a.Width, 0)
		}
		return c.Const(a.Width, a.Val<<b.Val)
	}
	if b.Op == OpConst && b.Val == 0 {
		return a
	}
	return c.mkBin(OpShl, a.Width, a, b)
}

// Lshr returns a >> b (logical), with shifts ≥ width yielding zero.
func (c *Context) Lshr(a, b *Expr) *Expr {
	sameWidth(a, b)
	if a.Op == OpConst && b.Op == OpConst {
		if b.Val >= uint64(a.Width) {
			return c.Const(a.Width, 0)
		}
		return c.Const(a.Width, a.Val>>b.Val)
	}
	if b.Op == OpConst && b.Val == 0 {
		return a
	}
	return c.mkBin(OpLshr, a.Width, a, b)
}

// Eq returns the width-1 comparison a == b.
func (c *Context) Eq(a, b *Expr) *Expr {
	sameWidth(a, b)
	if a == b {
		return c.True()
	}
	if a.Op == OpConst && b.Op == OpConst {
		return c.Bool(a.Val == b.Val)
	}
	if a.Width == 1 {
		// At width 1, x == 1 is x and x == 0 is ~x.
		if b.Op == OpConst {
			if b.Val == 1 {
				return a
			}
			return c.Not(a)
		}
		if a.Op == OpConst {
			if a.Val == 1 {
				return b
			}
			return c.Not(b)
		}
	}
	// Disjoint-constant pruning: (x==c1)==... handled by callers; here
	// normalize constant to the right for a canonical form.
	if a.Op == OpConst {
		a, b = b, a
	}
	if a.id > b.id && b.Op != OpConst {
		a, b = b, a
	}
	return c.mkBin(OpEq, 1, a, b)
}

// Ne returns the width-1 comparison a != b.
func (c *Context) Ne(a, b *Expr) *Expr { return c.Not(c.Eq(a, b)) }

// Ult returns the width-1 unsigned comparison a < b.
func (c *Context) Ult(a, b *Expr) *Expr {
	sameWidth(a, b)
	if a == b {
		return c.False()
	}
	if a.Op == OpConst && b.Op == OpConst {
		return c.Bool(a.Val < b.Val)
	}
	if b.Op == OpConst && b.Val == 0 {
		return c.False() // nothing is < 0 unsigned
	}
	if a.Op == OpConst && a.Val == Mask(b.Width) {
		return c.False() // all-ones is < nothing
	}
	return c.mkBin(OpUlt, 1, a, b)
}

// Ule returns the width-1 unsigned comparison a <= b.
func (c *Context) Ule(a, b *Expr) *Expr {
	sameWidth(a, b)
	if a == b {
		return c.True()
	}
	if a.Op == OpConst && b.Op == OpConst {
		return c.Bool(a.Val <= b.Val)
	}
	if a.Op == OpConst && a.Val == 0 {
		return c.True() // 0 <= everything
	}
	if b.Op == OpConst && b.Val == Mask(a.Width) {
		return c.True() // everything <= all-ones
	}
	return c.mkBin(OpUle, 1, a, b)
}

// Ugt returns a > b, normalized to Ult(b, a).
func (c *Context) Ugt(a, b *Expr) *Expr { return c.Ult(b, a) }

// Uge returns a >= b, normalized to Ule(b, a).
func (c *Context) Uge(a, b *Expr) *Expr { return c.Ule(b, a) }

// Ite returns "if cond then a else b"; cond must have width 1.
func (c *Context) Ite(cond, a, b *Expr) *Expr {
	if cond.Width != 1 {
		panic("bv: Ite condition must have width 1")
	}
	sameWidth(a, b)
	if cond.IsTrue() {
		return a
	}
	if cond.IsFalse() {
		return b
	}
	if a == b {
		return a
	}
	if a.Width == 1 {
		// Boolean Ite folds into and/or form for better simplification.
		if a.IsTrue() && b.IsFalse() {
			return cond
		}
		if a.IsFalse() && b.IsTrue() {
			return c.Not(cond)
		}
		if a.IsTrue() {
			return c.Or(cond, b)
		}
		if a.IsFalse() {
			return c.And(c.Not(cond), b)
		}
		if b.IsTrue() {
			return c.Or(c.Not(cond), a)
		}
		if b.IsFalse() {
			return c.And(cond, a)
		}
	}
	k := exprKey{tag: keyTag(OpIte, a.Width, 0, 0), a0: cond.id, a1: a.id, a2: b.id}
	return c.get(k, func() *Expr {
		return &Expr{Op: OpIte, Width: a.Width, Args: []*Expr{cond, a, b}}
	})
}

// Concat returns hi ++ lo, with hi in the high-order bits.
func (c *Context) Concat(hi, lo *Expr) *Expr {
	w := hi.Width + lo.Width
	checkWidth(w)
	if hi.Op == OpConst && lo.Op == OpConst {
		return c.Const(w, hi.Val<<uint(lo.Width)|lo.Val)
	}
	if hi.Op == OpConst && hi.Val == 0 {
		return c.ZeroExt(lo, w)
	}
	k := exprKey{tag: keyTag(OpConcat, w, 0, 0), a0: hi.id, a1: lo.id}
	return c.get(k, func() *Expr {
		return &Expr{Op: OpConcat, Width: w, Args: []*Expr{hi, lo}}
	})
}

// Extract returns bits hi..lo (inclusive, 0 = LSB) of a.
func (c *Context) Extract(a *Expr, hi, lo int) *Expr {
	if lo < 0 || hi >= a.Width || hi < lo {
		panic(fmt.Sprintf("bv: bad extract [%d:%d] of width %d", hi, lo, a.Width))
	}
	w := hi - lo + 1
	if w == a.Width {
		return a
	}
	if a.Op == OpConst {
		return c.Const(w, a.Val>>uint(lo))
	}
	if a.Op == OpZext {
		inner := a.Args[0]
		if lo >= inner.Width {
			return c.Const(w, 0) // extracting only padding
		}
		if hi < inner.Width {
			return c.Extract(inner, hi, lo)
		}
	}
	if a.Op == OpConcat {
		hiPart, loPart := a.Args[0], a.Args[1]
		if hi < loPart.Width {
			return c.Extract(loPart, hi, lo)
		}
		if lo >= loPart.Width {
			return c.Extract(hiPart, hi-loPart.Width, lo-loPart.Width)
		}
	}
	if a.Op == OpExtract {
		return c.Extract(a.Args[0], a.Lo+hi, a.Lo+lo)
	}
	k := exprKey{tag: keyTag(OpExtract, w, hi, lo), a0: a.id}
	return c.get(k, func() *Expr {
		return &Expr{Op: OpExtract, Width: w, Hi: hi, Lo: lo, Args: []*Expr{a}}
	})
}

// ZeroExt zero-extends a to the given width (≥ a.Width).
func (c *Context) ZeroExt(a *Expr, width int) *Expr {
	checkWidth(width)
	if width == a.Width {
		return a
	}
	if width < a.Width {
		panic(fmt.Sprintf("bv: ZeroExt narrows %d to %d", a.Width, width))
	}
	if a.Op == OpConst {
		return c.Const(width, a.Val)
	}
	if a.Op == OpZext {
		a = a.Args[0]
	}
	k := exprKey{tag: keyTag(OpZext, width, 0, 0), a0: a.id}
	return c.get(k, func() *Expr {
		return &Expr{Op: OpZext, Width: width, Args: []*Expr{a}}
	})
}

// Resize zero-extends or truncates a to width.
func (c *Context) Resize(a *Expr, width int) *Expr {
	switch {
	case width == a.Width:
		return a
	case width > a.Width:
		return c.ZeroExt(a, width)
	default:
		return c.Extract(a, width-1, 0)
	}
}

// NonZero returns the width-1 truth value of a (a != 0), the paper's
// "values and header fields evaluate to true if they are non-zero".
func (c *Context) NonZero(a *Expr) *Expr {
	if a.Width == 1 {
		return a
	}
	return c.Ne(a, c.Const(a.Width, 0))
}
