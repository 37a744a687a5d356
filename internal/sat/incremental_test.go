package sat

import (
	"math/rand"
	"testing"
)

func TestSolveAssumingBasic(t *testing.T) {
	s := New()
	x, y := s.NewVar(), s.NewVar()
	s.AddClause(MkLit(x, false), MkLit(y, false)) // x ∨ y

	if !s.SolveAssuming(MkLit(x, true)) { // assume ¬x
		t.Fatal("x∨y under ¬x should be SAT")
	}
	if s.Value(x) || !s.Value(y) {
		t.Fatal("model under ¬x must set y")
	}
	if s.SolveAssuming(MkLit(x, true), MkLit(y, true)) {
		t.Fatal("x∨y under ¬x,¬y should be UNSAT")
	}
	if !s.Okay() {
		t.Fatal("assumption failure must not mark the solver globally UNSAT")
	}
	if !s.Solve() {
		t.Fatal("dropping the assumptions must restore SAT")
	}
}

func TestSolveAssumingAlreadyTrueAndConflicting(t *testing.T) {
	s := New()
	x := s.NewVar()
	s.AddClause(MkLit(x, false)) // unit: x
	if !s.SolveAssuming(MkLit(x, false)) {
		t.Fatal("assuming an already-forced literal should be SAT")
	}
	if s.SolveAssuming(MkLit(x, true)) {
		t.Fatal("assuming the negation of a forced literal should be UNSAT")
	}
	if !s.Okay() {
		t.Fatal("solver must stay usable")
	}
	// Duplicate and self-contradictory assumption lists.
	if !s.SolveAssuming(MkLit(x, false), MkLit(x, false)) {
		t.Fatal("duplicate assumptions should be SAT")
	}
	if s.SolveAssuming(MkLit(x, false), MkLit(x, true)) {
		t.Fatal("contradictory assumptions should be UNSAT")
	}
}

func TestAddClauseBetweenSolves(t *testing.T) {
	s := New()
	a, b := s.NewVar(), s.NewVar()
	s.AddClause(MkLit(a, false), MkLit(b, false))
	if !s.Solve() {
		t.Fatal("should be SAT")
	}
	// Block the found model, twice; four assignments minus three blocked
	// still leaves a∨b satisfiable until all three satisfying rows go.
	for i := 0; i < 3; i++ {
		block := []Lit{MkLit(a, s.Value(a)), MkLit(b, s.Value(b))}
		s.AddClause(block...)
		sat := s.Solve()
		if i < 2 && !sat {
			t.Fatalf("blocking iteration %d: expected SAT", i)
		}
		if i == 2 && sat {
			t.Fatal("all satisfying assignments blocked: expected UNSAT")
		}
	}
	if s.Okay() {
		t.Fatal("exhausting all models must derive a global contradiction")
	}
}

func TestLearnedClauseRetention(t *testing.T) {
	// Pigeonhole clauses gated behind a selector: assuming the selector
	// forces the solver through the full UNSAT proof, learning clauses
	// that persist for later calls.
	s := New()
	const pigeons, holes = 5, 4
	sel := s.NewVar()
	v := func(p, h int) int { return 1 + p*holes + h }
	for i := 0; i < pigeons*holes; i++ {
		s.NewVar()
	}
	for p := 0; p < pigeons; p++ {
		lits := []Lit{MkLit(sel, true)}
		for h := 0; h < holes; h++ {
			lits = append(lits, MkLit(v(p, h), false))
		}
		s.AddClause(lits...)
	}
	for h := 0; h < holes; h++ {
		for p1 := 0; p1 < pigeons; p1++ {
			for p2 := p1 + 1; p2 < pigeons; p2++ {
				s.AddClause(MkLit(sel, true), MkLit(v(p1, h), true), MkLit(v(p2, h), true))
			}
		}
	}
	if s.SolveAssuming(MkLit(sel, false)) {
		t.Fatal("gated pigeonhole should be UNSAT under the selector")
	}
	if s.Learned() == 0 {
		t.Fatal("the UNSAT proof must have learned clauses")
	}
	if !s.Okay() {
		t.Fatal("only an assumption failed; the solver is not globally UNSAT")
	}
	if !s.SolveAssuming(MkLit(sel, true)) {
		t.Fatal("negating the selector disables the pigeonhole clauses: SAT")
	}
	if s.Value(sel) {
		t.Fatal("model must respect the ¬sel assumption")
	}
}

// TestRandomIncrementalAgainstBruteForce interleaves clause additions and
// assumption-based solves on one long-lived solver and cross-checks every
// verdict against enumeration: learned clauses must stay valid as clauses
// arrive and assumptions change.
func TestRandomIncrementalAgainstBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for iter := 0; iter < 60; iter++ {
		n := 4 + r.Intn(6) // 4..9 vars
		s := New()
		for i := 0; i < n; i++ {
			s.NewVar()
		}
		var cnf [][]Lit
		for round := 0; round < 6; round++ {
			for k := 1 + r.Intn(3); k > 0 && s.Okay(); k-- {
				width := 1 + r.Intn(3)
				cl := make([]Lit, width)
				for j := range cl {
					cl[j] = MkLit(r.Intn(n), r.Intn(2) == 1)
				}
				cnf = append(cnf, cl)
				s.AddClause(cl...)
			}
			var assumps []Lit
			for j := 0; j < r.Intn(3); j++ {
				assumps = append(assumps, MkLit(r.Intn(n), r.Intn(2) == 1))
			}
			// Brute-force reference: assumptions as extra unit clauses.
			ref := append([][]Lit{}, cnf...)
			for _, a := range assumps {
				ref = append(ref, []Lit{a})
			}
			want, _ := bruteForce(n, ref)
			got := s.SolveWith(assumps)
			if (got == Sat) != want {
				t.Fatalf("iter %d round %d: incremental=%v brute=%v cnf=%v assumps=%v",
					iter, round, got, want, cnf, assumps)
			}
			if got == Sat {
				for ci, cl := range ref {
					ok := false
					for _, l := range cl {
						if s.Value(l.Var()) != l.Neg() {
							ok = true
							break
						}
					}
					if !ok {
						t.Fatalf("iter %d round %d: model violates clause %d (%v)", iter, round, ci, cl)
					}
				}
			}
		}
	}
}
