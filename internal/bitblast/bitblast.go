// Package bitblast lowers bitvector formulas (internal/bv) to CNF over a
// CDCL SAT solver (internal/sat) using the standard Tseitin construction:
// ripple-carry adders, shift-add multipliers, restoring dividers, barrel
// shifters and bitwise comparators.
//
// Together with internal/sat it fills the role of the SMT backend that KLEE
// delegates to in the paper's prototype: deciding path-condition
// satisfiability and producing concrete counterexample models.
package bitblast

import (
	"p4assert/internal/bv"
	"p4assert/internal/sat"
)

// Blaster translates expressions into SAT literals. One Blaster owns one
// sat.Solver; translated nodes are cached so shared DAG nodes cost one
// circuit.
type Blaster struct {
	s       *sat.Solver
	bits    map[*bv.Expr][]sat.Lit
	varBits map[string][]sat.Lit
	lTrue   sat.Lit
}

// New returns a Blaster over solver s.
func New(s *sat.Solver) *Blaster {
	b := &Blaster{
		s:       s,
		bits:    make(map[*bv.Expr][]sat.Lit),
		varBits: make(map[string][]sat.Lit),
	}
	v := s.NewVar()
	b.lTrue = sat.MkLit(v, false)
	s.AddClause(b.lTrue)
	return b
}

// Solver returns the underlying SAT solver.
func (b *Blaster) Solver() *sat.Solver { return b.s }

func (b *Blaster) lFalse() sat.Lit { return b.lTrue.Not() }

func (b *Blaster) fresh() sat.Lit { return sat.MkLit(b.s.NewVar(), false) }

// constLit returns the literal for a known truth value.
func (b *Blaster) constLit(v bool) sat.Lit {
	if v {
		return b.lTrue
	}
	return b.lFalse()
}

// gateAnd returns a literal equivalent to the conjunction of ins.
func (b *Blaster) gateAnd(ins ...sat.Lit) sat.Lit {
	lits := ins[:0:0]
	for _, l := range ins {
		if l == b.lFalse() {
			return b.lFalse()
		}
		if l != b.lTrue {
			lits = append(lits, l)
		}
	}
	switch len(lits) {
	case 0:
		return b.lTrue
	case 1:
		return lits[0]
	}
	o := b.fresh()
	long := make([]sat.Lit, 0, len(lits)+1)
	for _, l := range lits {
		b.s.AddClause(o.Not(), l)
		long = append(long, l.Not())
	}
	long = append(long, o)
	b.s.AddClause(long...)
	return o
}

// gateOr returns a literal equivalent to the disjunction of ins.
func (b *Blaster) gateOr(ins ...sat.Lit) sat.Lit {
	neg := make([]sat.Lit, len(ins))
	for i, l := range ins {
		neg[i] = l.Not()
	}
	return b.gateAnd(neg...).Not()
}

// gateXor returns a literal equivalent to a XOR b2.
func (b *Blaster) gateXor(a, c sat.Lit) sat.Lit {
	if a == b.lTrue {
		return c.Not()
	}
	if a == b.lFalse() {
		return c
	}
	if c == b.lTrue {
		return a.Not()
	}
	if c == b.lFalse() {
		return a
	}
	if a == c {
		return b.lFalse()
	}
	if a == c.Not() {
		return b.lTrue
	}
	o := b.fresh()
	b.s.AddClause(a.Not(), c.Not(), o.Not())
	b.s.AddClause(a, c, o.Not())
	b.s.AddClause(a.Not(), c, o)
	b.s.AddClause(a, c.Not(), o)
	return o
}

// gateMux returns sel ? a : c.
func (b *Blaster) gateMux(sel, a, c sat.Lit) sat.Lit {
	if sel == b.lTrue {
		return a
	}
	if sel == b.lFalse() {
		return c
	}
	if a == c {
		return a
	}
	o := b.fresh()
	b.s.AddClause(sel.Not(), a.Not(), o)
	b.s.AddClause(sel.Not(), a, o.Not())
	b.s.AddClause(sel, c.Not(), o)
	b.s.AddClause(sel, c, o.Not())
	return o
}

// fullAdder returns (sum, carryOut) for a + c + cin.
func (b *Blaster) fullAdder(a, c, cin sat.Lit) (sat.Lit, sat.Lit) {
	sum := b.gateXor(b.gateXor(a, c), cin)
	carry := b.gateOr(b.gateAnd(a, c), b.gateAnd(a, cin), b.gateAnd(c, cin))
	return sum, carry
}

// addVec returns a + c + cin over equal-length vectors (LSB first).
func (b *Blaster) addVec(a, c []sat.Lit, cin sat.Lit) []sat.Lit {
	out := make([]sat.Lit, len(a))
	carry := cin
	for i := range a {
		out[i], carry = b.fullAdder(a[i], c[i], carry)
	}
	return out
}

func (b *Blaster) notVec(a []sat.Lit) []sat.Lit {
	out := make([]sat.Lit, len(a))
	for i, l := range a {
		out[i] = l.Not()
	}
	return out
}

// subVec returns a - c as a + ~c + 1.
func (b *Blaster) subVec(a, c []sat.Lit) []sat.Lit {
	return b.addVec(a, b.notVec(c), b.lTrue)
}

// constVec returns the literal vector of a constant.
func (b *Blaster) constVec(width int, v uint64) []sat.Lit {
	out := make([]sat.Lit, width)
	for i := range out {
		out[i] = b.constLit(v>>uint(i)&1 == 1)
	}
	return out
}

// eqVec returns one literal for vector equality.
func (b *Blaster) eqVec(a, c []sat.Lit) sat.Lit {
	parts := make([]sat.Lit, len(a))
	for i := range a {
		parts[i] = b.gateXor(a[i], c[i]).Not()
	}
	return b.gateAnd(parts...)
}

// ultVec returns one literal for unsigned a < c.
func (b *Blaster) ultVec(a, c []sat.Lit) sat.Lit {
	lt := b.lFalse()
	for i := 0; i < len(a); i++ { // LSB to MSB
		bitLt := b.gateAnd(a[i].Not(), c[i])
		bitEq := b.gateXor(a[i], c[i]).Not()
		lt = b.gateOr(bitLt, b.gateAnd(bitEq, lt))
	}
	return lt
}

// isZeroVec returns one literal for "all bits zero".
func (b *Blaster) isZeroVec(a []sat.Lit) sat.Lit {
	return b.gateOr(a...).Not()
}

// muxVec returns sel ? a : c element-wise.
func (b *Blaster) muxVec(sel sat.Lit, a, c []sat.Lit) []sat.Lit {
	out := make([]sat.Lit, len(a))
	for i := range a {
		out[i] = b.gateMux(sel, a[i], c[i])
	}
	return out
}

// mulVec returns a * c modulo 2^width via shift-and-add.
func (b *Blaster) mulVec(a, c []sat.Lit) []sat.Lit {
	w := len(a)
	acc := b.constVec(w, 0)
	for i := 0; i < w; i++ {
		// addend = (a << i) masked by c[i]
		addend := make([]sat.Lit, w)
		for j := 0; j < w; j++ {
			if j < i {
				addend[j] = b.lFalse()
			} else {
				addend[j] = b.gateAnd(a[j-i], c[i])
			}
		}
		acc = b.addVec(acc, addend, b.lFalse())
	}
	return acc
}

// divModVec implements restoring division, returning (quotient, remainder)
// with the SMT-LIB convention for zero divisors (q = all-ones, r = a).
// The running remainder uses width+1 bits to absorb the shift before the
// trial subtraction.
func (b *Blaster) divModVec(a, d []sat.Lit) ([]sat.Lit, []sat.Lit) {
	w := len(a)
	ext := func(v []sat.Lit) []sat.Lit { // zero-extend to w+1
		out := make([]sat.Lit, w+1)
		copy(out, v)
		out[w] = b.lFalse()
		return out
	}
	dExt := ext(d)
	r := b.constVec(w+1, 0)
	q := make([]sat.Lit, w)
	for i := w - 1; i >= 0; i-- {
		// r = (r << 1) | a_i  (stays within w+1 bits: r < d ≤ 2^w-1)
		shifted := make([]sat.Lit, w+1)
		shifted[0] = a[i]
		copy(shifted[1:], r[:w])
		r = shifted
		// trial subtract
		diff := b.subVec(r, dExt)
		geq := b.ultVec(r, dExt).Not()
		r = b.muxVec(geq, diff, r)
		q[i] = geq
	}
	divZero := b.isZeroVec(d)
	qOut := b.muxVec(divZero, b.constVec(w, bv.Mask(w)), q)
	rOut := b.muxVec(divZero, a, r[:w])
	return qOut, rOut
}

// shiftVec implements a barrel shifter. left selects direction; amounts
// ≥ width produce zero.
func (b *Blaster) shiftVec(a, amt []sat.Lit, left bool) []sat.Lit {
	w := len(a)
	out := a
	// Stages for each shift-amount bit that can matter (< log2ceil(w)+1).
	stages := 0
	for 1<<uint(stages) < w {
		stages++
	}
	for k := 0; k < stages && k < len(amt); k++ {
		sh := 1 << uint(k)
		shifted := make([]sat.Lit, w)
		for i := 0; i < w; i++ {
			var src int
			if left {
				src = i - sh
			} else {
				src = i + sh
			}
			if src < 0 || src >= w {
				shifted[i] = b.lFalse()
			} else {
				shifted[i] = out[src]
			}
		}
		out = b.muxVec(amt[k], shifted, out)
	}
	// If any amount bit ≥ stages is set, or the amount ≥ w numerically,
	// the result is zero. Checking the high bits covers amounts ≥ 2^stages
	// ≥ w for power-of-two w; for other widths also compare amt ≥ w.
	var high []sat.Lit
	for k := stages; k < len(amt); k++ {
		high = append(high, amt[k])
	}
	tooBig := b.gateOr(high...)
	if w != 1<<uint(stages) {
		// non-power-of-two width: amounts in [w, 2^stages) also zero out
		ge := b.ultVec(amt, b.constVec(len(amt), uint64(w))).Not()
		tooBig = b.gateOr(tooBig, ge)
	}
	return b.muxVec(tooBig, b.constVec(w, 0), out)
}

// Bits returns the literal vector (LSB first) representing e, building the
// circuit on demand.
func (b *Blaster) Bits(e *bv.Expr) []sat.Lit {
	if v, ok := b.bits[e]; ok {
		return v
	}
	v := b.blast(e)
	if len(v) != e.Width {
		panic("bitblast: width mismatch in circuit construction")
	}
	b.bits[e] = v
	return v
}

func (b *Blaster) blast(e *bv.Expr) []sat.Lit {
	switch e.Op {
	case bv.OpConst:
		return b.constVec(e.Width, e.Val)
	case bv.OpVar:
		if v, ok := b.varBits[e.Name]; ok {
			return v
		}
		v := make([]sat.Lit, e.Width)
		for i := range v {
			v[i] = b.fresh()
		}
		b.varBits[e.Name] = v
		return v
	case bv.OpNot:
		return b.notVec(b.Bits(e.Args[0]))
	case bv.OpAnd, bv.OpOr, bv.OpXor:
		a, c := b.Bits(e.Args[0]), b.Bits(e.Args[1])
		out := make([]sat.Lit, e.Width)
		for i := range out {
			switch e.Op {
			case bv.OpAnd:
				out[i] = b.gateAnd(a[i], c[i])
			case bv.OpOr:
				out[i] = b.gateOr(a[i], c[i])
			default:
				out[i] = b.gateXor(a[i], c[i])
			}
		}
		return out
	case bv.OpAdd:
		return b.addVec(b.Bits(e.Args[0]), b.Bits(e.Args[1]), b.lFalse())
	case bv.OpSub:
		return b.subVec(b.Bits(e.Args[0]), b.Bits(e.Args[1]))
	case bv.OpMul:
		return b.mulVec(b.Bits(e.Args[0]), b.Bits(e.Args[1]))
	case bv.OpUDiv:
		q, _ := b.divModVec(b.Bits(e.Args[0]), b.Bits(e.Args[1]))
		return q
	case bv.OpUMod:
		_, r := b.divModVec(b.Bits(e.Args[0]), b.Bits(e.Args[1]))
		return r
	case bv.OpShl:
		return b.shiftVec(b.Bits(e.Args[0]), b.Bits(e.Args[1]), true)
	case bv.OpLshr:
		return b.shiftVec(b.Bits(e.Args[0]), b.Bits(e.Args[1]), false)
	case bv.OpEq:
		return []sat.Lit{b.eqVec(b.Bits(e.Args[0]), b.Bits(e.Args[1]))}
	case bv.OpUlt:
		return []sat.Lit{b.ultVec(b.Bits(e.Args[0]), b.Bits(e.Args[1]))}
	case bv.OpUle:
		return []sat.Lit{b.ultVec(b.Bits(e.Args[1]), b.Bits(e.Args[0])).Not()}
	case bv.OpIte:
		sel := b.Bits(e.Args[0])[0]
		return b.muxVec(sel, b.Bits(e.Args[1]), b.Bits(e.Args[2]))
	case bv.OpConcat:
		hi, lo := b.Bits(e.Args[0]), b.Bits(e.Args[1])
		out := make([]sat.Lit, 0, e.Width)
		out = append(out, lo...)
		out = append(out, hi...)
		return out
	case bv.OpExtract:
		src := b.Bits(e.Args[0])
		return src[e.Lo : e.Hi+1]
	case bv.OpZext:
		src := b.Bits(e.Args[0])
		out := make([]sat.Lit, e.Width)
		copy(out, src)
		for i := len(src); i < e.Width; i++ {
			out[i] = b.lFalse()
		}
		return out
	default:
		panic("bitblast: unknown op " + e.Op.String())
	}
}

// AssertTrue constrains the width-1 expression e to be true.
func (b *Blaster) AssertTrue(e *bv.Expr) {
	if e.Width != 1 {
		panic("bitblast: AssertTrue requires a width-1 expression")
	}
	b.s.AddClause(b.Bits(e)[0])
}

// VarBits returns the input literals of a blasted variable (LSB first),
// or nil if the variable has not been blasted.
func (b *Blaster) VarBits(name string) []sat.Lit { return b.varBits[name] }

// Model extracts concrete values for every blasted variable after the
// solver reported SAT. Unconstrained bits read as zero.
func (b *Blaster) Model() map[string]uint64 {
	m := make(map[string]uint64, len(b.varBits))
	for name := range b.varBits {
		m[name] = b.VarValue(name)
	}
	return m
}

// ModelFor extracts concrete values for the named variables only, so a
// model holds exactly the variables of the query's canonical order.
func (b *Blaster) ModelFor(names []string) map[string]uint64 {
	m := make(map[string]uint64, len(names))
	for _, name := range names {
		m[name] = b.VarValue(name)
	}
	return m
}

// VarValue reads one blasted variable's value from the solver model.
// Unblasted variables and unconstrained bits read as zero.
func (b *Blaster) VarValue(name string) uint64 {
	var v uint64
	for i, l := range b.varBits[name] {
		val := b.s.Value(l.Var())
		if l.Neg() {
			val = !val
		}
		if val {
			v |= 1 << uint(i)
		}
	}
	return v
}
