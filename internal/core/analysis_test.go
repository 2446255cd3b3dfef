package core

import (
	"math"
	"testing"

	"repro/internal/align"
	"repro/internal/bsm"
	"repro/internal/codon"
	"repro/internal/newick"
	"repro/internal/sim"
	"repro/internal/stat"
)

// smallDataset simulates a quick 6-species workload with genuine
// positive selection on the foreground branch.
func smallDataset(t testing.TB, seed int64, codons int) (*align.Alignment, *newick.Tree) {
	t.Helper()
	tr, err := sim.RandomTree(sim.TreeConfig{Species: 6, MeanBranchLength: 0.15, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	a, err := sim.Simulate(tr, codon.Universal, sim.SeqConfig{
		Sites:  codons,
		Params: bsm.Params{Kappa: 2.5, Omega0: 0.08, Omega2: 4.0, P0: 0.5, P1: 0.3},
		Seed:   seed + 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	return a, tr
}

func TestNewAnalysisValidation(t *testing.T) {
	a, tr := smallDataset(t, 1, 20)
	// Strip the foreground mark.
	unmarked := tr.Clone()
	for _, n := range unmarked.Nodes {
		n.Mark = 0
	}
	if _, err := NewAnalysis(a, unmarked, Options{}); err == nil {
		t.Fatal("tree without foreground mark accepted")
	}
	// Two marks.
	twoMarks := tr.Clone()
	for _, n := range twoMarks.Nodes {
		if n != twoMarks.Root {
			n.Mark = 1
		}
	}
	if _, err := NewAnalysis(a, twoMarks, Options{}); err == nil {
		t.Fatal("tree with many foreground marks accepted")
	}
	if _, err := NewAnalysis(a, tr, Options{Freq: FreqEstimator(99)}); err == nil {
		t.Fatal("unknown frequency estimator accepted")
	}
}

func TestFitImprovesLikelihood(t *testing.T) {
	a, tr := smallDataset(t, 2, 30)
	an, err := NewAnalysis(a, tr, Options{Engine: EngineSlim, MaxIterations: 25, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	// Likelihood at the starting point.
	p0 := an.initialParams(bsm.H1)
	if err := an.install(bsm.H1, p0, an.eng.BranchLengths()); err != nil {
		t.Fatal(err)
	}
	startLnL := an.eng.LogLikelihood()

	res, err := an.Fit(bsm.H1)
	if err != nil {
		t.Fatal(err)
	}
	if res.LnL < startLnL {
		t.Fatalf("fit made things worse: %g → %g", startLnL, res.LnL)
	}
	if res.Iterations <= 0 || res.FuncEvals <= 0 {
		t.Fatalf("no work recorded: %+v", res)
	}
	if res.Runtime <= 0 {
		t.Fatal("no runtime recorded")
	}
	if err := res.Params.Validate(bsm.H1); err != nil {
		t.Fatalf("fitted params invalid: %v", err)
	}
	for _, id := range an.eng.BranchIDs() {
		if !(res.BranchLengths[id] > 0) {
			t.Fatal("non-positive fitted branch length")
		}
	}
}

func TestH1FitsAtLeastAsWellAsH0(t *testing.T) {
	if testing.Short() {
		t.Skip("200-iteration H0+H1 fits in -short mode")
	}
	a, tr := smallDataset(t, 3, 30)
	an, err := NewAnalysis(a, tr, Options{Engine: EngineSlim, MaxIterations: 200, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	res, err := an.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Nested hypotheses: the H1 optimum cannot be materially below H0
	// (a small slack absorbs incomplete convergence).
	if res.H1.LnL < res.H0.LnL-1e-2 {
		t.Fatalf("H1 lnL %g below H0 lnL %g", res.H1.LnL, res.H0.LnL)
	}
	if res.LRT.Statistic < 0 {
		t.Fatal("negative LRT statistic")
	}
	if res.TotalIterations != res.H0.Iterations+res.H1.Iterations {
		t.Fatal("iteration bookkeeping wrong")
	}
}

// The paper's accuracy experiment (§IV-1): all engine configurations
// must land on (numerically) the same optimum. D = |lnL−lnL̂|/|lnL|
// was at most 5.5e-8 in the paper; with a shared optimizer family and
// small data we check a loose 1e-5 here (different trajectories may
// stop at slightly different points).
func TestEnginesAgreeOnOptimum(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-engine fit in -short mode")
	}
	a, tr := smallDataset(t, 4, 25)
	var lnls []float64
	for _, kind := range []EngineKind{EngineBaseline, EngineSlim, EngineSlimSym, EngineSlimBundled} {
		an, err := NewAnalysis(a, tr, Options{Engine: kind, MaxIterations: 150, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		res, err := an.Fit(bsm.H1)
		if err != nil {
			t.Fatal(err)
		}
		lnls = append(lnls, res.LnL)
	}
	for i := 1; i < len(lnls); i++ {
		d := stat.RelativeDifference(lnls[0], lnls[i])
		if d > 1e-5 {
			t.Fatalf("engine %d disagrees: lnL %0.8f vs %0.8f (D=%g)", i, lnls[i], lnls[0], d)
		}
	}
}

// A fixed model evaluated through the objective must give identical
// lnL in every engine — accuracy without optimizer noise.
func TestEnginesAgreePointwise(t *testing.T) {
	a, tr := smallDataset(t, 5, 40)
	p := bsm.Params{Kappa: 2.2, Omega0: 0.15, Omega2: 3, P0: 0.5, P1: 0.3}
	var vals []float64
	for _, kind := range []EngineKind{EngineBaseline, EngineSlim, EngineSlimSym, EngineSlimBundled} {
		an, err := NewAnalysis(a, tr, Options{Engine: kind, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		if err := an.install(bsm.H1, p, an.eng.BranchLengths()); err != nil {
			t.Fatal(err)
		}
		vals = append(vals, an.eng.LogLikelihood())
	}
	for i := 1; i < len(vals); i++ {
		if math.Abs(vals[i]-vals[0]) > 1e-8 {
			t.Fatalf("pointwise disagreement: %0.12f vs %0.12f", vals[i], vals[0])
		}
	}
}

func TestRunDetectsSimulatedSelection(t *testing.T) {
	if testing.Short() {
		t.Skip("full test in -short mode")
	}
	// Strong simulated selection over a decent number of sites should
	// produce a positive LRT statistic and some candidate sites.
	tr, err := sim.RandomTree(sim.TreeConfig{Species: 8, MeanBranchLength: 0.2, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	a, err := sim.Simulate(tr, codon.Universal, sim.SeqConfig{
		Sites:  120,
		Params: bsm.Params{Kappa: 2, Omega0: 0.05, Omega2: 8, P0: 0.4, P1: 0.2},
		Seed:   22,
	})
	if err != nil {
		t.Fatal(err)
	}
	an, err := NewAnalysis(a, tr, Options{Engine: EngineSlim, MaxIterations: 60, Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	res, err := an.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.LRT.Statistic <= 0 {
		t.Fatalf("no signal recovered from strongly selected data: %v", res.LRT)
	}
	if res.H1.Params.Omega2 <= 1 {
		t.Fatalf("ω2 estimate %g not above 1", res.H1.Params.Omega2)
	}
	if len(res.PositiveSites) == 0 {
		t.Fatal("no positively selected sites identified")
	}
	for i := 1; i < len(res.PositiveSites); i++ {
		if res.PositiveSites[i].Probability > res.PositiveSites[i-1].Probability {
			t.Fatal("sites not sorted by probability")
		}
	}
}

func TestSeedReproducibility(t *testing.T) {
	a, tr := smallDataset(t, 6, 20)
	run := func() *FitResult {
		an, err := NewAnalysis(a, tr, Options{Engine: EngineSlim, MaxIterations: 10, Seed: 99})
		if err != nil {
			t.Fatal(err)
		}
		res, err := an.Fit(bsm.H0)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	r1, r2 := run(), run()
	if r1.LnL != r2.LnL || r1.Iterations != r2.Iterations {
		t.Fatalf("same seed gave different runs: %v vs %v", r1.LnL, r2.LnL)
	}
}

func TestEngineKindStrings(t *testing.T) {
	kinds := []EngineKind{EngineBaseline, EngineSlim, EngineSlimSym, EngineSlimBundled}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if s == "" || seen[s] {
			t.Fatalf("bad engine name %q", s)
		}
		seen[s] = true
	}
}

func TestFreqEstimators(t *testing.T) {
	a, tr := smallDataset(t, 7, 25)
	for _, f := range []FreqEstimator{FreqF61, FreqF3x4, FreqUniform} {
		an, err := NewAnalysis(a, tr, Options{Freq: f})
		if err != nil {
			t.Fatal(err)
		}
		sum := 0.0
		for _, p := range an.Pi() {
			if !(p > 0) {
				t.Fatalf("estimator %d produced non-positive frequency", f)
			}
			sum += p
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("estimator %d: frequencies sum to %g", f, sum)
		}
	}
}
