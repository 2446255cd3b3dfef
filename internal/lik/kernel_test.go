package lik_test

import (
	"testing"

	"repro/internal/align"
	"repro/internal/blas"
	"repro/internal/bsm"
	"repro/internal/codon"
	"repro/internal/core"
	"repro/internal/lik"
	"repro/internal/newick"
)

// The baseline engine pins the hand-rolled kernel whatever the process
// default is: every transition matrix it packs, cached or scratch, is
// packed by "hand-rolled" while the default is "blocked" or "naive",
// and a bundled slim engine in the same process packs with the
// default.
func TestBaselineEnginePacksWithHandRolledKernel(t *testing.T) {
	prev := blas.ActiveKernel().Name()
	defer blas.SetKernel(prev)

	tr, err := newick.Parse("((A:0.1,B:0.2)#1:0.05,C:0.3,D:0.15);")
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"A", "B", "C", "D"}
	a := &align.Alignment{Names: names, Seqs: []string{"ATGTTTCCA", "ATGTTCCCG", "ACGTTTCCA", "ATGCTTGCA"}}
	ca, err := align.EncodeCodons(a, codon.Universal)
	if err != nil {
		t.Fatal(err)
	}
	pats := align.Compress(ca)
	m, err := bsm.New(codon.Universal, bsm.H1, bsm.Params{Kappa: 2, Omega0: 0.2, Omega2: 3, P0: 0.5, P1: 0.3},
		codon.UniformFrequencies(codon.Universal))
	if err != nil {
		t.Fatal(err)
	}
	for _, def := range []string{"blocked", "naive"} {
		if err := blas.SetKernel(def); err != nil {
			t.Fatal(err)
		}
		for _, tc := range []struct {
			kind core.EngineKind
			want string
		}{
			{core.EngineBaseline, "hand-rolled"},
			{core.EngineSlimBundled, def},
		} {
			e, err := lik.New(tr, pats, names, tc.kind.LikConfig())
			if err != nil {
				t.Fatal(err)
			}
			if err := e.SetModel(m); err != nil {
				t.Fatal(err)
			}
			e.LogLikelihood()
			e.BranchLogLikelihood(e.BranchIDs()[0], 0.3)
			got := lik.PackKernels(e)
			if len(got) == 0 {
				t.Fatalf("%v: engine packed no transition matrices", tc.kind)
			}
			for _, k := range got {
				if k != tc.want {
					t.Fatalf("%v under default %q: transition packed by %q, want %q (packs %v)",
						tc.kind, def, k, tc.want, got)
				}
			}
		}
	}
}
