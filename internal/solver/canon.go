package solver

// Canonical query encoding: the normalized-memo key and the canonical
// variable order that the memo and lex-min witness extraction hang off.
//
// Two constraint sets that differ only in variable naming and conjunct
// order describe the same satisfiability problem — sibling paths and
// sibling submodels produce such repeats constantly (the k-th symbolic
// draw of a header field gets a different "hint#k" name per version, rule
// branches permute the same key conjuncts). The canonical form erases
// both sources of variation:
//
//  1. each conjunct is serialized context-free, with variables numbered
//     by first appearance *within the conjunct* and DAG sharing kept as
//     back-references (this local encoding is cacheable per expression
//     node, since hash-consing makes pointer identity structural);
//  2. conjuncts are stably sorted by local encoding — ties keep original
//     order, which can only cost memo hits, never correctness;
//  3. variables are renumbered globally by first appearance in the sorted
//     order, and the key records, per conjunct, the local→global mapping.
//
// The key is injective modulo renaming: equal keys imply the queries are
// isomorphic under the positional variable bijection, so a memoized
// verdict, canonical model (values by global index) and fresh-blast CNF
// size transfer exactly. The global numbering also fixes the variable
// order for lexicographically-minimal model extraction (accel.go), which
// is what keeps models independent of solver internals.

import (
	"sort"
	"strconv"
	"strings"

	"p4assert/internal/bv"
)

// canonQuery is the canonical form of one live constraint set.
type canonQuery struct {
	key      string
	conjs    []*bv.Expr // conjuncts in canonical order
	varOrder []string   // actual variable names by canonical index
	widths   []int      // widths matching varOrder
}

// localEnc is one conjunct's context-free encoding.
type localEnc struct {
	enc    string
	vars   []string // names in local first-appearance order
	widths []int
}

// encodeLocal serializes e with local variable numbering, memoized in
// cache (safe: the encoding depends only on the node's own structure).
func encodeLocal(e *bv.Expr, cache map[*bv.Expr]*localEnc) *localEnc {
	if le, ok := cache[e]; ok {
		return le
	}
	le := &localEnc{}
	var sb strings.Builder
	varNum := map[string]int{}
	nodeNum := map[*bv.Expr]int{}
	var emit func(x *bv.Expr)
	emit = func(x *bv.Expr) {
		if id, ok := nodeNum[x]; ok {
			sb.WriteByte('@')
			sb.WriteString(strconv.Itoa(id))
			sb.WriteByte(';')
			return
		}
		nodeNum[x] = len(nodeNum)
		switch x.Op {
		case bv.OpConst:
			sb.WriteByte('c')
			sb.WriteString(strconv.Itoa(x.Width))
			sb.WriteByte(':')
			sb.WriteString(strconv.FormatUint(x.Val, 16))
			sb.WriteByte(';')
		case bv.OpVar:
			n, ok := varNum[x.Name]
			if !ok {
				n = len(le.vars)
				varNum[x.Name] = n
				le.vars = append(le.vars, x.Name)
				le.widths = append(le.widths, x.Width)
			}
			sb.WriteByte('v')
			sb.WriteString(strconv.Itoa(x.Width))
			sb.WriteByte(':')
			sb.WriteString(strconv.Itoa(n))
			sb.WriteByte(';')
		case bv.OpExtract:
			sb.WriteByte('x')
			sb.WriteString(strconv.Itoa(x.Hi))
			sb.WriteByte(':')
			sb.WriteString(strconv.Itoa(x.Lo))
			sb.WriteByte('(')
			emit(x.Args[0])
			sb.WriteByte(')')
		default:
			sb.WriteString(strconv.Itoa(int(x.Op)))
			sb.WriteByte(':')
			sb.WriteString(strconv.Itoa(x.Width))
			sb.WriteByte('(')
			for _, a := range x.Args {
				emit(a)
			}
			sb.WriteByte(')')
		}
	}
	emit(e)
	le.enc = sb.String()
	cache[e] = le
	return le
}

// canonicalize builds the canonical form of live. cache memoizes the
// per-conjunct local encodings across queries (a Checker-lifetime cache).
func canonicalize(live []*bv.Expr, cache map[*bv.Expr]*localEnc) *canonQuery {
	encs := make([]*localEnc, len(live))
	order := make([]int, len(live))
	for i, e := range live {
		encs[i] = encodeLocal(e, cache)
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return encs[order[a]].enc < encs[order[b]].enc })

	cq := &canonQuery{conjs: make([]*bv.Expr, len(live))}
	varNum := map[string]int{}
	var sb strings.Builder
	for ci, oi := range order {
		le := encs[oi]
		cq.conjs[ci] = live[oi]
		sb.WriteString(le.enc)
		sb.WriteByte('[')
		for vi, name := range le.vars {
			g, ok := varNum[name]
			if !ok {
				g = len(cq.varOrder)
				varNum[name] = g
				cq.varOrder = append(cq.varOrder, name)
				cq.widths = append(cq.widths, le.widths[vi])
			}
			sb.WriteString(strconv.Itoa(g))
			sb.WriteByte(',')
		}
		sb.WriteString("];")
	}
	cq.key = sb.String()
	return cq
}
