package lik

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/align"
	"repro/internal/blas"
	"repro/internal/bsm"
	"repro/internal/codon"
	"repro/internal/expm"
	"repro/internal/mat"
	"repro/internal/newick"
)

// fixture bundles a ready-to-evaluate engine with its inputs.
type fixture struct {
	tree  *newick.Tree
	pats  *align.Patterns
	names []string
	model *bsm.Model
}

func makeFixture(t testing.TB, nwk string, names []string, seqs []string, h bsm.Hypothesis, p bsm.Params) *fixture {
	t.Helper()
	tr, err := newick.Parse(nwk)
	if err != nil {
		t.Fatal(err)
	}
	a := &align.Alignment{Names: names, Seqs: seqs}
	ca, err := align.EncodeCodons(a, codon.Universal)
	if err != nil {
		t.Fatal(err)
	}
	pats := align.Compress(ca)
	pi, err := codon.F61(codon.Universal, pats.CountCodonsCompressed())
	if err != nil {
		t.Fatal(err)
	}
	m, err := bsm.New(codon.Universal, h, p, pi)
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{tree: tr, pats: pats, names: names, model: m}
}

func (f *fixture) engine(t testing.TB, cfg Config) *Engine {
	t.Helper()
	e, err := New(f.tree, f.pats, f.names, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.SetModel(f.model); err != nil {
		t.Fatal(err)
	}
	return e
}

func h1Params() bsm.Params {
	return bsm.Params{Kappa: 2.5, Omega0: 0.2, Omega2: 2.5, P0: 0.55, P1: 0.3}
}

func h0Params() bsm.Params {
	p := h1Params()
	p.Omega2 = 1
	return p
}

// Standard small fixture: 4 species, 6 codons, foreground on an
// internal branch.
func smallFixture(t testing.TB, h bsm.Hypothesis, p bsm.Params) *fixture {
	return makeFixture(t,
		"((A:0.2,B:0.15)#1:0.1,(C:0.3,D:0.25):0.05);",
		[]string{"A", "B", "C", "D"},
		[]string{
			"ATGTTTCCCAAAGGGTGC",
			"ATGTTCCCCAAAGGGTGC",
			"ATGTTTCCGAAGGGGTGT",
			"ATGCTTCCCAAAGGCTGC",
		}, h, p)
}

func TestNewValidation(t *testing.T) {
	f := smallFixture(t, bsm.H1, h1Params())
	if _, err := New(f.tree, f.pats, []string{"A", "B"}, Config{}); err == nil {
		t.Fatal("name count mismatch accepted")
	}
	if _, err := New(f.tree, f.pats, []string{"A", "B", "C", "X"}, Config{}); err == nil {
		t.Fatal("unknown leaf accepted")
	}
	if _, err := New(f.tree, f.pats, []string{"A", "A", "C", "D"}, Config{}); err == nil {
		t.Fatal("duplicate names accepted")
	}
}

func TestLogLikelihoodFiniteAndNegative(t *testing.T) {
	f := smallFixture(t, bsm.H1, h1Params())
	e := f.engine(t, Config{})
	lnL := e.LogLikelihood()
	if math.IsNaN(lnL) || math.IsInf(lnL, 0) {
		t.Fatalf("lnL = %g", lnL)
	}
	if lnL >= 0 {
		t.Fatalf("lnL = %g, expected negative for multi-site data", lnL)
	}
}

// The paper's central correctness requirement: every execution
// strategy computes the same likelihood.
func TestAllStrategiesAgree(t *testing.T) {
	f := smallFixture(t, bsm.H1, h1Params())
	configs := []Config{
		{Kernel: blas.HandRolledKernel, PMethod: expm.MethodGEMM, Apply: ApplyBundled},
		{PMethod: expm.MethodGEMM, Apply: ApplyPerSiteGEMV},
		{PMethod: expm.MethodSYRK, Apply: ApplyPerSiteGEMV},
		{PMethod: expm.MethodSYRK, Apply: ApplyPerSiteSYMV},
		{PMethod: expm.MethodSYRK, Apply: ApplyBundled},
	}
	ref := f.engine(t, configs[0]).LogLikelihood()
	for _, cfg := range configs[1:] {
		got := f.engine(t, cfg).LogLikelihood()
		if math.Abs(got-ref) > 1e-8 {
			t.Fatalf("config %+v: lnL %0.12f vs reference %0.12f", cfg, got, ref)
		}
	}
}

// Brute-force oracle on a 3-leaf star tree: the root is the only
// internal node, so per class
// L(pattern) = Σ_r π_r · P_A[r][a]·P_B[r][b]·P_C[r][c].
func TestAgainstBruteForceStarTree(t *testing.T) {
	f := makeFixture(t,
		"(A:0.2,B:0.4,C:0.1#1);",
		[]string{"A", "B", "C"},
		[]string{"ATGTTT", "ATGTTC", "ACGTTT"},
		bsm.H1, h1Params())
	e := f.engine(t, Config{PMethod: expm.MethodSYRK})
	got := e.LogLikelihood()

	m := f.model
	n := codon.NumSense
	// Decompositions per distinct rate.
	decomp := map[*codon.Rate]*expm.Decomposition{}
	for _, r := range m.DistinctRates() {
		d, err := expm.Decompose(r.S, r.Pi)
		if err != nil {
			t.Fatal(err)
		}
		decomp[r] = d
	}
	pmat := func(rate *codon.Rate, bl float64) *mat.Matrix {
		d := decomp[rate]
		ws := d.NewWorkspace()
		p := mat.New(n, n)
		d.PMatrix(m.EffectiveTime(bl), expm.MethodGEMM, p, ws)
		return p
	}
	lens := map[string]float64{"A": 0.2, "B": 0.4, "C": 0.1}
	fg := map[string]bool{"A": false, "B": false, "C": true}
	codons := map[string][]int{}
	for si, name := range f.names {
		row := make([]int, f.pats.NumPatterns())
		for p := range row {
			row[p] = f.pats.Columns[p][si]
		}
		codons[name] = row
	}

	want := 0.0
	for p := 0; p < f.pats.NumPatterns(); p++ {
		site := 0.0
		for c := 0; c < bsm.NumClasses; c++ {
			var pm [3]*mat.Matrix
			for i, name := range []string{"A", "B", "C"} {
				pm[i] = pmat(m.RateFor(c, fg[name]), lens[name])
			}
			lc := 0.0
			for r := 0; r < n; r++ {
				v := m.Pi[r]
				for i, name := range []string{"A", "B", "C"} {
					v *= pm[i].At(r, codons[name][p])
				}
				lc += v
			}
			site += m.Props[c] * lc
		}
		want += f.pats.Weights[p] * math.Log(site)
	}
	if math.Abs(got-want) > 1e-9*(1+math.Abs(want)) {
		t.Fatalf("engine lnL %0.12f, brute force %0.12f", got, want)
	}
}

// Reversibility: on a two-leaf tree the likelihood depends only on
// t_A + t_B (the root placement is arbitrary for a reversible model).
func TestPulleyPrinciple(t *testing.T) {
	seqs := []string{"ATGTTTAAATGC", "ATACTTAAGTGT"}
	names := []string{"A", "B"}
	p := h1Params()
	f1 := makeFixture(t, "(A:0.3,B:0.1);", names, seqs, bsm.H1, p)
	f2 := makeFixture(t, "(A:0.05,B:0.35);", names, seqs, bsm.H1, p)
	f3 := makeFixture(t, "(A:0.4,B:0.0);", names, seqs, bsm.H1, p)
	l1 := f1.engine(t, Config{}).LogLikelihood()
	l2 := f2.engine(t, Config{}).LogLikelihood()
	l3 := f3.engine(t, Config{}).LogLikelihood()
	if math.Abs(l1-l2) > 1e-9 || math.Abs(l1-l3) > 1e-9 {
		t.Fatalf("pulley principle violated: %g %g %g", l1, l2, l3)
	}
}

// H1 with ω2 = 1 must give exactly the H0 likelihood (the hypotheses
// are nested).
func TestH1ReducesToH0(t *testing.T) {
	fH0 := smallFixture(t, bsm.H0, h0Params())
	pp := h1Params()
	pp.Omega2 = 1
	fH1 := smallFixture(t, bsm.H1, pp)
	l0 := fH0.engine(t, Config{}).LogLikelihood()
	l1 := fH1.engine(t, Config{}).LogLikelihood()
	if math.Abs(l0-l1) > 1e-10 {
		t.Fatalf("H1(ω2=1) = %g, H0 = %g", l1, l0)
	}
}

// Scaling must not change the result: force rescaling on every node
// with an absurd threshold and compare.
func TestScalingInvariance(t *testing.T) {
	f := smallFixture(t, bsm.H1, h1Params())
	base := f.engine(t, Config{}).LogLikelihood()
	scaled := f.engine(t, Config{scaleThreshold: 1e10}).LogLikelihood()
	if math.Abs(base-scaled) > 1e-8 {
		t.Fatalf("scaling changed lnL: %0.12f vs %0.12f", base, scaled)
	}
}

// Deep caterpillar tree with long branches: likelihoods underflow
// without scaling; with scaling the result must stay finite.
func TestScalingPreventsUnderflow(t *testing.T) {
	nwk := "(((((((((((A:2,B:2):2,C:2):2,D:2):2,E:2):2,F:2):2,G:2):2,H:2):2,I:2):2,J:2):2,K:2):2,L:2);"
	names := []string{"A", "B", "C", "D", "E", "F", "G", "H", "I", "J", "K", "L"}
	seqs := make([]string, len(names))
	rng := rand.New(rand.NewSource(55))
	nucs := "TCAG"
	for i := range seqs {
		b := make([]byte, 9)
		for j := range b {
			b[j] = nucs[rng.Intn(4)]
		}
		s := string(b)
		// Avoid stop codons by prefixing ATG blocks if needed.
		for k := 0; k+3 <= len(s); k += 3 {
			if c, err := codon.ParseCodon(s[k : k+3]); err == nil && codon.Universal.IsStop(c) {
				s = s[:k] + "ATG" + s[k+3:]
			}
		}
		seqs[i] = s
	}
	f := makeFixture(t, nwk, names, seqs, bsm.H1, h1Params())
	lnL := f.engine(t, Config{}).LogLikelihood()
	if math.IsInf(lnL, 0) || math.IsNaN(lnL) {
		t.Fatalf("underflow not handled: lnL = %g", lnL)
	}
}

// Missing data must behave like marginalizing the leaf out: an
// all-missing leaf contributes nothing.
func TestMissingDataLeaf(t *testing.T) {
	p := h1Params()
	// C entirely missing, tree with C attached at the root.
	fWith := makeFixture(t, "(A:0.2,B:0.3,C:0.1);",
		[]string{"A", "B", "C"},
		[]string{"ATGTTTAAA", "ATGTTCAAG", "---------"},
		bsm.H1, p)
	lnWith := fWith.engine(t, Config{}).LogLikelihood()

	// Same two-species data on the equivalent two-leaf tree. Note the
	// codon frequencies must match, so reuse fWith's model (gaps do
	// not contribute counts).
	fWithout := makeFixture(t, "(A:0.2,B:0.3);",
		[]string{"A", "B"},
		[]string{"ATGTTTAAA", "ATGTTCAAG"},
		bsm.H1, p)
	fWithout.model = fWith.model
	lnWithout := fWithout.engine(t, Config{}).LogLikelihood()
	if math.Abs(lnWith-lnWithout) > 1e-9 {
		t.Fatalf("all-missing leaf changed lnL: %g vs %g", lnWith, lnWithout)
	}
}

// BranchLogLikelihood must agree with a full re-evaluation at the
// perturbed length, for leaf and internal branches alike, and must
// not disturb cached state.
func TestBranchLogLikelihoodMatchesFull(t *testing.T) {
	f := smallFixture(t, bsm.H1, h1Params())
	for _, cfg := range []Config{
		{Apply: ApplyPerSiteGEMV},
		{Apply: ApplyPerSiteSYMV},
		{Apply: ApplyBundled},
	} {
		e := f.engine(t, cfg)
		base := e.LogLikelihood()
		lens := e.BranchLengths()
		for _, v := range e.BranchIDs() {
			newLen := lens[v]*1.35 + 0.01
			got := e.BranchLogLikelihood(v, newLen)

			// Full recompute oracle on a fresh engine.
			e2 := f.engine(t, cfg)
			l2 := append([]float64(nil), lens...)
			l2[v] = newLen
			if err := e2.SetBranchLengths(l2); err != nil {
				t.Fatal(err)
			}
			want := e2.LogLikelihood()
			if math.Abs(got-want) > 1e-8 {
				t.Fatalf("cfg %+v branch %d: path update %0.12f vs full %0.12f", cfg, v, got, want)
			}

			// State must be untouched.
			if after := e.LogLikelihood(); math.Abs(after-base) > 1e-10 {
				t.Fatalf("BranchLogLikelihood mutated state: %g vs %g", after, base)
			}
		}
	}
}

// Longer branches away from the data optimum must reduce the
// likelihood (sanity for optimization).
func TestLikelihoodRespondsToBranchLengths(t *testing.T) {
	f := smallFixture(t, bsm.H1, h1Params())
	e := f.engine(t, Config{})
	base := e.LogLikelihood()
	long := make([]float64, e.NumNodes())
	for _, v := range e.BranchIDs() {
		long[v] = 50
	}
	if err := e.SetBranchLengths(long); err != nil {
		t.Fatal(err)
	}
	saturated := e.LogLikelihood()
	if saturated >= base {
		t.Fatalf("saturated tree should fit worse: %g vs %g", saturated, base)
	}
}

func TestSetBranchLengthsValidation(t *testing.T) {
	f := smallFixture(t, bsm.H1, h1Params())
	e := f.engine(t, Config{})
	if err := e.SetBranchLengths(make([]float64, 3)); err == nil {
		t.Fatal("wrong length accepted")
	}
	bad := make([]float64, e.NumNodes())
	bad[0] = -1
	if err := e.SetBranchLengths(bad); err == nil {
		t.Fatal("negative length accepted")
	}
}

func TestStatsCounting(t *testing.T) {
	f := smallFixture(t, bsm.H1, h1Params())
	e := f.engine(t, Config{})
	if e.Stats().Eigendecompositions != 3 {
		t.Fatalf("H1 should decompose 3 matrices, got %d", e.Stats().Eigendecompositions)
	}
	e.LogLikelihood()
	st := e.Stats()
	if st.FullEvaluations != 1 {
		t.Fatalf("FullEvaluations = %d", st.FullEvaluations)
	}
	// 6 branches: the foreground needs 3 ω matrices, the 5 background
	// branches 2 each → 1×3 + 5×2 = 13.
	if st.TransitionBuilds != 13 {
		t.Fatalf("TransitionBuilds = %d, want 13", st.TransitionBuilds)
	}
	// A second evaluation with clean caches rebuilds nothing.
	e.LogLikelihood()
	if e.Stats().TransitionBuilds != 13 {
		t.Fatal("clean caches were rebuilt")
	}

	// H0 shares ω2 with ω1: 2 decompositions only.
	f0 := smallFixture(t, bsm.H0, h0Params())
	e0 := f0.engine(t, Config{})
	if e0.Stats().Eigendecompositions != 2 {
		t.Fatalf("H0 should decompose 2 matrices, got %d", e0.Stats().Eigendecompositions)
	}
}

func TestOmega2IncreasesFitWhenForegroundDiverged(t *testing.T) {
	// Foreground leaf C carries many nonsynonymous changes; a model
	// with large ω2 should fit better than ω2 = 1.
	names := []string{"A", "B", "C"}
	seqs := []string{
		"ATGTTTAAAGGGCCCTGC",
		"ATGTTTAAAGGGCCCTGC",
		"ATGCGTCATGGGACCTGC", // nonsyn changes at several sites
	}
	nwk := "(A:0.1,B:0.1,C:0.2#1);"
	pLow := h1Params()
	pLow.Omega2 = 1
	pHigh := h1Params()
	pHigh.Omega2 = 8
	fLow := makeFixture(t, nwk, names, seqs, bsm.H1, pLow)
	fHigh := makeFixture(t, nwk, names, seqs, bsm.H1, pHigh)
	lLow := fLow.engine(t, Config{}).LogLikelihood()
	lHigh := fHigh.engine(t, Config{}).LogLikelihood()
	if lHigh <= lLow {
		t.Fatalf("ω2=8 should fit diverged foreground better: %g vs %g", lHigh, lLow)
	}
}

// Duplicating every alignment column must exactly double the
// log-likelihood (site independence + pattern weighting).
func TestDuplicatedSitesDoubleLogLikelihood(t *testing.T) {
	names := []string{"A", "B", "C", "D"}
	seqs := []string{
		"ATGTTTCCCAAAGGGTGC",
		"ATGTTCCCCAAAGGGTGC",
		"ATGTTTCCGAAGGGGTGT",
		"ATGCTTCCCAAAGGCTGC",
	}
	doubled := make([]string, len(seqs))
	for i, s := range seqs {
		doubled[i] = s + s
	}
	nwk := "((A:0.2,B:0.15)#1:0.1,(C:0.3,D:0.25):0.05);"
	p := h1Params()
	f1 := makeFixture(t, nwk, names, seqs, bsm.H1, p)
	f2 := makeFixture(t, nwk, names, doubled, bsm.H1, p)
	// Same frequencies (doubling preserves counts proportions), but be
	// explicit and share the model.
	f2.model = f1.model
	l1 := f1.engine(t, Config{}).LogLikelihood()
	l2 := f2.engine(t, Config{}).LogLikelihood()
	if math.Abs(l2-2*l1) > 1e-9 {
		t.Fatalf("doubled data lnL %g != 2×%g", l2, l1)
	}
	// Pattern count must not grow (all new columns repeat old ones).
	if f2.pats.NumPatterns() != f1.pats.NumPatterns() {
		t.Fatal("duplicate columns created new patterns")
	}
}

// The transition matrices inside the engine must match the independent
// Padé oracle end-to-end through the model's time scaling.
func TestEngineTransitionsMatchPade(t *testing.T) {
	f := smallFixture(t, bsm.H1, h1Params())
	e := f.engine(t, Config{})
	e.LogLikelihood()
	m := f.model
	for _, v := range e.BranchIDs() {
		nd := &e.nodes[v]
		for c := 0; c < bsm.NumClasses; c++ {
			w := e.model.RateSlotFor(c, nd.foreground)
			got := e.trans[v][w]
			rate := m.RateAt(w)
			want := expm.PadeExpm(rate.Q, m.EffectiveTime(e.brLen[v]))
			if !got.EqualApprox(want, 1e-9) {
				t.Fatalf("branch %d slot %d: engine P differs from Padé oracle", v, w)
			}
		}
	}
}

// An alignment consisting only of missing data carries no information:
// every site likelihood is exactly 1, so lnL = 0 for any parameters.
func TestAllMissingDataGivesZeroLogLikelihood(t *testing.T) {
	// Built by hand: F61 cannot be estimated from an all-gap
	// alignment, so use uniform frequencies.
	tr, err := newick.Parse("((A:0.2,B:0.15)#1:0.1,C:0.3);")
	if err != nil {
		t.Fatal(err)
	}
	a := &align.Alignment{
		Names: []string{"A", "B", "C"},
		Seqs:  []string{"------", "------", "------"},
	}
	ca, err := align.EncodeCodons(a, codon.Universal)
	if err != nil {
		t.Fatal(err)
	}
	pats := align.Compress(ca)
	pi := codon.UniformFrequencies(codon.Universal)
	m, err := bsm.New(codon.Universal, bsm.H1, h1Params(), pi)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(tr, pats, ca.Names, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.SetModel(m); err != nil {
		t.Fatal(err)
	}
	if lnL := e.LogLikelihood(); math.Abs(lnL) > 1e-10 {
		t.Fatalf("all-missing lnL = %g, want 0", lnL)
	}
}

// Zero-length branches are legal (P = I): the likelihood must equal
// that of a tree where the zero-length child is fused upward.
func TestZeroLengthBranch(t *testing.T) {
	f := smallFixture(t, bsm.H1, h1Params())
	e := f.engine(t, Config{})
	lens := e.BranchLengths()
	lens[0] = 0
	if err := e.SetBranchLengths(lens); err != nil {
		t.Fatal(err)
	}
	lnL := e.LogLikelihood()
	if math.IsNaN(lnL) || math.IsInf(lnL, 0) {
		t.Fatalf("zero-length branch broke the likelihood: %g", lnL)
	}
}
