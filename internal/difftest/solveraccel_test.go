package difftest

// Corpus-wide solver memo equivalence: for every corpus program and
// technique shape, reports with the normalized memo must be byte-identical
// under ComparableJSON to the reference path with the memo disabled. This
// is the gate that lets the memo claim to be a pure performance change:
// verdicts, counterexample models, and all comparable counters must not
// move.

import (
	"testing"

	"p4assert/internal/core"
	"p4assert/internal/progs"
	"p4assert/internal/solver"
)

func TestSolverAccelerationEquivalenceCorpus(t *testing.T) {
	shapes := []struct {
		name string
		opts core.Options
	}{
		{"parallel", core.Options{Parallel: 4}},
		{"sequential-opt", core.Options{Opt: true}},
	}

	for _, p := range progs.All() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			file := p.Name + ".p4"
			for _, shape := range shapes {
				noMemo := shape.opts
				noMemo.Solver = solver.Config{DisableMemo: true}
				want, err := verifyCold(t, file, p.Source, noMemo)
				if err != nil {
					t.Fatal(err)
				}
				got, err := verifyCold(t, file, p.Source, shape.opts)
				if err != nil {
					t.Fatal(err)
				}
				mustComparable(t, shape.name+"/memo", want, got)
			}
		})
	}
}
