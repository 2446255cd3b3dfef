package core

import (
	"testing"

	"repro/internal/bsm"
)

func TestBEBValidation(t *testing.T) {
	a, tr := smallDataset(t, 30, 20)
	an, err := NewAnalysis(a, tr, Options{Engine: EngineSlim, MaxIterations: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := an.BEB(nil, 5); err == nil {
		t.Fatal("nil fit accepted")
	}
	h0, err := an.Fit(bsm.H0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := an.BEB(h0, 5); err == nil {
		t.Fatal("H0 fit accepted")
	}
	h1, err := an.Fit(bsm.H1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := an.BEB(h1, 1); err == nil {
		t.Fatal("degenerate grid accepted")
	}
}

func TestBEBProducesValidPosteriors(t *testing.T) {
	if testing.Short() {
		t.Skip("BEB grid in -short mode")
	}
	a, tr := smallDataset(t, 31, 30)
	an, err := NewAnalysis(a, tr, Options{Engine: EngineSlim, MaxIterations: 20, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	h1, err := an.Fit(bsm.H1)
	if err != nil {
		t.Fatal(err)
	}
	beb, err := an.BEB(h1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if beb.GridPoints == 0 || beb.GridPoints > 27 {
		t.Fatalf("grid points = %d", beb.GridPoints)
	}
	if len(beb.SiteProbability) != 30 {
		t.Fatalf("%d site probabilities for 30 sites", len(beb.SiteProbability))
	}
	for k, p := range beb.SiteProbability {
		if p < 0 || p > 1 {
			t.Fatalf("site %d: BEB probability %g outside [0,1]", k+1, p)
		}
	}
	sites := beb.PositiveSitesBEB(0.5)
	for i := 1; i < len(sites); i++ {
		if sites[i].Probability > sites[i-1].Probability {
			t.Fatal("BEB sites not sorted")
		}
	}
	// The engine must be restored to the H1 optimum afterwards.
	if err := an.install(bsm.H1, h1.Params, h1.BranchLengths); err != nil {
		t.Fatal(err)
	}
}

// BEB integrates over the prior grid, so even a pathological MLE
// (e.g. boundary proportions) yields moderated posteriors — the
// property that motivated BEB over NEB.
func TestBEBModeratesExtremeMLE(t *testing.T) {
	if testing.Short() {
		t.Skip("BEB grid in -short mode")
	}
	a, tr := smallDataset(t, 32, 25)
	an, err := NewAnalysis(a, tr, Options{Engine: EngineSlim, MaxIterations: 5, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	h1, err := an.Fit(bsm.H1)
	if err != nil {
		t.Fatal(err)
	}
	// Force a pathological parameter point claiming everything is
	// class 2.
	h1.Params.P0, h1.Params.P1 = 0.001, 0.001
	h1.Params.Omega2 = 10
	beb, err := an.BEB(h1, 3)
	if err != nil {
		t.Fatal(err)
	}
	// The grid integration must not echo the pathological point: the
	// weights come from the data, not from the supplied parameters
	// (only κ, ω0 and branch lengths are held fixed).
	all := 0
	for _, p := range beb.SiteProbability {
		if p > 0.99 {
			all++
		}
	}
	if all == len(beb.SiteProbability) {
		t.Fatal("BEB returned P>0.99 for every site — no moderation")
	}
}
