package sat

import (
	"math/rand"
	"testing"
)

func TestLitEncoding(t *testing.T) {
	p := MkLit(3, false)
	n := MkLit(3, true)
	if p.Var() != 3 || n.Var() != 3 {
		t.Fatal("Var() broken")
	}
	if p.Neg() || !n.Neg() {
		t.Fatal("Neg() broken")
	}
	if p.Not() != n || n.Not() != p {
		t.Fatal("Not() broken")
	}
}

func TestTrivialSAT(t *testing.T) {
	s := New()
	a := s.NewVar()
	s.AddClause(MkLit(a, false))
	if !s.Solve() {
		t.Fatal("single unit clause should be SAT")
	}
	if !s.Value(a) {
		t.Fatal("model should set a=true")
	}
}

func TestTrivialUNSAT(t *testing.T) {
	s := New()
	a := s.NewVar()
	s.AddClause(MkLit(a, false))
	s.AddClause(MkLit(a, true))
	if s.Solve() {
		t.Fatal("a and not-a should be UNSAT")
	}
}

func TestEmptyClauseUNSAT(t *testing.T) {
	s := New()
	s.NewVar()
	if s.AddClause() {
		t.Fatal("empty clause should report false")
	}
	if s.Solve() {
		t.Fatal("empty clause means UNSAT")
	}
}

func TestTautologyDropped(t *testing.T) {
	s := New()
	a := s.NewVar()
	s.AddClause(MkLit(a, false), MkLit(a, true)) // tautology
	if !s.Solve() {
		t.Fatal("tautology-only formula should be SAT")
	}
}

func TestChainImplication(t *testing.T) {
	// x0 and (¬x_i ∨ x_{i+1}) for a long chain; forces all true.
	s := New()
	const n = 200
	vars := make([]int, n)
	for i := range vars {
		vars[i] = s.NewVar()
	}
	s.AddClause(MkLit(vars[0], false))
	for i := 0; i+1 < n; i++ {
		s.AddClause(MkLit(vars[i], true), MkLit(vars[i+1], false))
	}
	if !s.Solve() {
		t.Fatal("implication chain should be SAT")
	}
	for i, v := range vars {
		if !s.Value(v) {
			t.Fatalf("var %d should be forced true", i)
		}
	}
}

func TestPigeonhole(t *testing.T) {
	// PHP(4,3): 4 pigeons in 3 holes is UNSAT and requires real search.
	s := New()
	const pigeons, holes = 4, 3
	v := func(p, h int) int { return p*holes + h }
	for i := 0; i < pigeons*holes; i++ {
		s.NewVar()
	}
	for p := 0; p < pigeons; p++ {
		lits := make([]Lit, holes)
		for h := 0; h < holes; h++ {
			lits[h] = MkLit(v(p, h), false)
		}
		s.AddClause(lits...)
	}
	for h := 0; h < holes; h++ {
		for p1 := 0; p1 < pigeons; p1++ {
			for p2 := p1 + 1; p2 < pigeons; p2++ {
				s.AddClause(MkLit(v(p1, h), true), MkLit(v(p2, h), true))
			}
		}
	}
	if s.Solve() {
		t.Fatal("pigeonhole 4-into-3 should be UNSAT")
	}
}

func TestGraphColoringSAT(t *testing.T) {
	// A 5-cycle is 3-colorable.
	s := New()
	const n, k = 5, 3
	v := func(node, color int) int { return node*k + color }
	for i := 0; i < n*k; i++ {
		s.NewVar()
	}
	for node := 0; node < n; node++ {
		lits := make([]Lit, k)
		for c := 0; c < k; c++ {
			lits[c] = MkLit(v(node, c), false)
		}
		s.AddClause(lits...)
		for c1 := 0; c1 < k; c1++ {
			for c2 := c1 + 1; c2 < k; c2++ {
				s.AddClause(MkLit(v(node, c1), true), MkLit(v(node, c2), true))
			}
		}
	}
	for node := 0; node < n; node++ {
		next := (node + 1) % n
		for c := 0; c < k; c++ {
			s.AddClause(MkLit(v(node, c), true), MkLit(v(next, c), true))
		}
	}
	if !s.Solve() {
		t.Fatal("5-cycle should be 3-colorable")
	}
	// Validate the coloring from the model.
	color := make([]int, n)
	for node := 0; node < n; node++ {
		color[node] = -1
		for c := 0; c < k; c++ {
			if s.Value(v(node, c)) {
				color[node] = c
				break
			}
		}
		if color[node] < 0 {
			t.Fatalf("node %d uncolored in model", node)
		}
	}
	for node := 0; node < n; node++ {
		if color[node] == color[(node+1)%n] {
			t.Fatalf("model gives adjacent nodes %d,%d the same color", node, (node+1)%n)
		}
	}
}

// bruteForce decides a CNF by enumeration; n must be small.
func bruteForce(n int, cnf [][]Lit) (bool, uint32) {
	for m := uint32(0); m < 1<<uint(n); m++ {
		ok := true
		for _, cl := range cnf {
			sat := false
			for _, l := range cl {
				val := m>>uint(l.Var())&1 == 1
				if val != l.Neg() {
					sat = true
					break
				}
			}
			if !sat {
				ok = false
				break
			}
		}
		if ok {
			return true, m
		}
	}
	return false, 0
}

// TestRandom3SATAgainstBruteForce is the core soundness property: on random
// small formulas the CDCL verdict must match enumeration, and SAT models
// must actually satisfy every clause.
func TestRandom3SATAgainstBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for iter := 0; iter < 400; iter++ {
		n := 3 + r.Intn(8)   // 3..10 vars
		m := 1 + r.Intn(5*n) // up to ~5n clauses
		cnf := make([][]Lit, 0, m)
		for i := 0; i < m; i++ {
			width := 1 + r.Intn(3)
			cl := make([]Lit, width)
			for j := range cl {
				cl[j] = MkLit(r.Intn(n), r.Intn(2) == 1)
			}
			cnf = append(cnf, cl)
		}
		want, _ := bruteForce(n, cnf)

		s := New()
		for i := 0; i < n; i++ {
			s.NewVar()
		}
		for _, cl := range cnf {
			s.AddClause(cl...)
		}
		got := s.Solve()
		if got != want {
			t.Fatalf("iter %d: CDCL=%v brute=%v for n=%d cnf=%v", iter, got, want, n, cnf)
		}
		if got {
			for ci, cl := range cnf {
				sat := false
				for _, l := range cl {
					if s.Value(l.Var()) != l.Neg() {
						sat = true
						break
					}
				}
				if !sat {
					t.Fatalf("iter %d: model does not satisfy clause %d (%v)", iter, ci, cl)
				}
			}
		}
	}
}

func TestAddClauseAtLevelZeroSimplifies(t *testing.T) {
	s := New()
	a, b := s.NewVar(), s.NewVar()
	s.AddClause(MkLit(a, false))                 // a = true
	s.AddClause(MkLit(a, true), MkLit(b, false)) // a -> b
	if !s.Solve() {
		t.Fatal("should be SAT")
	}
	if !s.Value(a) || !s.Value(b) {
		t.Fatal("propagation through level-0 units failed")
	}
}

func TestLuby(t *testing.T) {
	want := []int64{1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8}
	for i, w := range want {
		if got := luby(int64(i + 1)); got != w {
			t.Fatalf("luby(%d) = %d, want %d", i+1, got, w)
		}
	}
}
