package solver

// Full (layer 3) queries: one fresh blast per query and canonical model
// extraction.
//
// Each full query bit-blasts its canonical conjuncts into a new
// sat.Solver, searches once, and on SAT refines the model into the unique
// lexicographically-minimal one over the canonical variable order. The
// solver is dropped afterwards, so the answer is a pure function of the
// query: a memo replay and a cold solve return the same verdict and the
// same witness. The blast's CNF size, measured before search, defines the
// comparable BitblastVars/Clauses counters.

import (
	"p4assert/internal/bitblast"
	"p4assert/internal/sat"
)

// solveFull decides one full query. It returns the canonical lex-min
// model, nil when the query is UNSAT, and the blast's CNF size.
func (c *Checker) solveFull(cq *canonQuery) (model map[string]uint64, vars, clauses int64) {
	s := sat.New()
	bl := bitblast.New(s)
	for _, e := range cq.conjs {
		bl.AssertTrue(e)
	}
	vars, clauses = int64(s.NumVars()), int64(s.NumClauses())
	if s.SolveWith(nil) == sat.Sat {
		model = extractCanonical(s, bl, cq)
	}
	d, p, cf := s.Stats()
	a := &c.Stats.Accel
	a.Decisions += d
	a.Propagations += p
	a.Conflicts += cf
	a.LearnedClauses += s.Learned()
	return model, vars, clauses
}

// extractCanonical refines the solver's current model into the unique
// lexicographically-minimal one over (canonical variable order, MSB-first
// bits): for each bit in that order it fixes 0 when the current model
// already has 0, and otherwise asks the solver whether 0 is still
// consistent with the bits fixed so far. Because the minimal model is
// unique, a memo replay and a cold solve return byte-identical witnesses.
func extractCanonical(s *sat.Solver, bl *bitblast.Blaster, cq *canonQuery) map[string]uint64 {
	model := bl.ModelFor(cq.varOrder)
	var fix []sat.Lit
	for _, name := range cq.varOrder {
		bits := bl.VarBits(name)
		for i := len(bits) - 1; i >= 0; i-- {
			if model[name]>>uint(i)&1 == 0 {
				fix = append(fix, bits[i].Not())
				continue
			}
			try := append(fix[:len(fix):len(fix)], bits[i].Not())
			if s.SolveWith(try) == sat.Sat {
				model = bl.ModelFor(cq.varOrder)
				fix = append(fix, bits[i].Not())
			} else {
				fix = append(fix, bits[i])
			}
		}
	}
	return model
}
