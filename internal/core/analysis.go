package core

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/align"
	"repro/internal/bsm"
	"repro/internal/lik"
	"repro/internal/newick"
	"repro/internal/optimize"
	"repro/internal/stat"
)

// Analysis is a positive-selection analysis of one gene alignment on
// one tree with one marked foreground branch — the unit of work
// CodeML processes ("designed to test one gene and one branch at a
// time").
type Analysis struct {
	opts  Options
	tree  *newick.Tree
	pats  *align.Patterns
	names []string
	pi    []float64
	eng   *lik.Engine
}

// NewAnalysis prepares an analysis from a nucleotide alignment and a
// Newick tree with exactly one #1-marked foreground branch.
func NewAnalysis(a *align.Alignment, t *newick.Tree, opts Options) (*Analysis, error) {
	opts.fill()
	ca, err := align.EncodeCodons(a, opts.Code)
	if err != nil {
		return nil, err
	}
	return newAnalysis(t, align.Compress(ca), ca.Names, opts)
}

// newGeneAnalysis builds an Analysis from a batch gene, reusing the
// gene's cached encode+compress product (Gene.Patterns) so the batch
// drivers run EncodeCodons+Compress exactly once per gene even when a
// shared-frequency pre-pass already encoded it.
func newGeneAnalysis(g *Gene, opts Options) (*Analysis, error) {
	opts.fill()
	pats, names, err := g.Patterns(opts.Code)
	if err != nil {
		return nil, err
	}
	return newAnalysis(g.Tree, pats, names, opts)
}

// newAnalysis finishes construction from compressed patterns — the
// shared tail of NewAnalysis and the batch driver's prepared path.
func newAnalysis(t *newick.Tree, pats *align.Patterns, names []string, opts Options) (*Analysis, error) {
	if got := len(t.ForegroundBranches()); got != 1 {
		return nil, fmt.Errorf("core: tree must mark exactly one foreground branch (#1), found %d", got)
	}
	pi, err := resolveFrequencies(&opts, pats)
	if err != nil {
		return nil, err
	}
	eng, err := lik.New(t, pats, names, opts.likConfig())
	if err != nil {
		return nil, err
	}
	return &Analysis{
		opts:  opts,
		tree:  t.Clone(),
		pats:  pats,
		names: names,
		pi:    pi,
		eng:   eng,
	}, nil
}

// Pi returns the equilibrium codon frequencies in use.
func (an *Analysis) Pi() []float64 { return an.pi }

// Close releases the analysis's engine-owned worker pool, if any
// (Options.Workers > 0). Safe to call multiple times.
func (an *Analysis) Close() { an.eng.Close() }

// NumPatterns returns the number of compressed site patterns.
func (an *Analysis) NumPatterns() int { return an.pats.NumPatterns() }

// FitResult is the outcome of one maximum-likelihood fit.
type FitResult struct {
	Engine     EngineKind
	Hypothesis bsm.Hypothesis
	LnL        float64
	Params     bsm.Params
	// BranchLengths are indexed by node ID of the analysis tree.
	BranchLengths []float64
	Iterations    int
	FuncEvals     int
	Converged     bool
	Runtime       time.Duration
}

// paramLayout describes the packing of the unconstrained optimizer
// vector: model parameters first, then one log-length per branch.
type paramLayout struct {
	h         bsm.Hypothesis
	nModel    int   // 4 under H0, 5 under H1
	branchIDs []int // node IDs owning a branch, in vector order
}

var (
	trKappa  = optimize.LogTransform{Lo: 0}
	trOmega0 = optimize.LogitTransform{Lo: 0, Hi: 1}
	trOmega2 = optimize.LogTransform{Lo: 1}
	trProp   = optimize.SimplexTransform{K: 3}
	trBranch = optimize.LogTransform{Lo: 0}
)

func (l *paramLayout) pack(p bsm.Params, brLens []float64) []float64 {
	x := make([]float64, l.nModel+len(l.branchIDs))
	x[0] = trKappa.Internal(p.Kappa)
	x[1] = trOmega0.Internal(p.Omega0)
	i := 2
	if l.h == bsm.H1 {
		x[2] = trOmega2.Internal(p.Omega2)
		i = 3
	}
	ys := trProp.Internal([]float64{p.P0, p.P1})
	x[i], x[i+1] = ys[0], ys[1]
	i += 2
	for k, id := range l.branchIDs {
		x[i+k] = trBranch.Internal(math.Max(brLens[id], 1e-6))
	}
	return x
}

// unpack reads the model parameters from the packed vector's prefix.
func (l *paramLayout) unpack(x []float64) bsm.Params {
	p := bsm.Params{Kappa: trKappa.External(x[0]), Omega0: trOmega0.External(x[1]), Omega2: 1}
	i := 2
	if l.h == bsm.H1 {
		p.Omega2 = trOmega2.External(x[2])
		i = 3
	}
	props := trProp.External([]float64{x[i], x[i+1]})
	p.P0, p.P1 = props[0], props[1]
	return p
}

// install pushes the external parameters and the branch lengths
// (indexed by node ID) into the likelihood engine.
func (an *Analysis) install(h bsm.Hypothesis, p bsm.Params, lens []float64) error {
	m, err := bsm.New(an.opts.Code, h, p, an.pi)
	if err != nil {
		return err
	}
	if err := an.eng.SetModel(m); err != nil {
		return err
	}
	return an.eng.SetBranchLengths(lens)
}

// initialParams draws the CodeML-style seeded starting point.
func (an *Analysis) initialParams(h bsm.Hypothesis) bsm.Params {
	rng := rand.New(rand.NewSource(an.opts.Seed))
	p := bsm.Params{
		Kappa:  1.5 + rng.Float64(),       // ~[1.5, 2.5]
		Omega0: 0.1 + 0.3*rng.Float64(),   // ~[0.1, 0.4]
		Omega2: 1.5 + 2.0*rng.Float64(),   // ~[1.5, 3.5]
		P0:     0.45 + 0.20*rng.Float64(), // ~[0.45, 0.65]
		P1:     0.20 + 0.10*rng.Float64(), // ~[0.20, 0.30]
	}
	if h == bsm.H0 {
		p.Omega2 = 1
	}
	return p
}

// Fit maximizes the branch-site likelihood under the hypothesis from
// the seeded default starting point and returns the fitted
// parameters, iteration count and wall time — the quantities Table
// III reports per dataset and hypothesis.
func (an *Analysis) Fit(h bsm.Hypothesis) (*FitResult, error) {
	return an.FitFrom(h, an.initialParams(h), an.tree.BranchLengths())
}

// FitFrom maximizes the branch-site likelihood under the hypothesis
// starting from the given parameters and branch lengths (indexed by
// node ID). Run uses it to warm-start H1 from the H0 optimum, the
// standard guard against the boundary local optima of the branch-site
// surface.
func (an *Analysis) FitFrom(h bsm.Hypothesis, p0 bsm.Params, startLens []float64) (*FitResult, error) {
	start := time.Now()
	if h == bsm.H0 {
		p0.Omega2 = 1
	} else if p0.Omega2 <= 1.01 {
		// Start ω2 well inside H1's open domain: starting at the
		// boundary ω2 → 1 puts the log transform where its Jacobian
		// (and hence the internal-coordinate gradient) vanishes, so
		// BFGS would stall immediately.
		p0.Omega2 = 1.5
	}
	// Keep the proportion starting point away from the simplex
	// boundary for the same vanishing-gradient reason (an H0 fit can
	// legitimately end on the p0, p1 → 0 ridge, where classes 2a/2b
	// absorb classes 0/1).
	const minProp = 0.02
	if p0.P0 < minProp {
		p0.P0 = minProp
	}
	if p0.P1 < minProp {
		p0.P1 = minProp
	}
	if excess := p0.P0 + p0.P1 - 0.98; excess > 0 {
		p0.P0 -= excess / 2
		p0.P1 -= excess / 2
	}
	if err := p0.Validate(h); err != nil {
		return nil, err
	}
	layout := &paramLayout{h: h, branchIDs: an.eng.BranchIDs()}
	layout.nModel = 4
	if h == bsm.H1 {
		layout.nModel = 5
	}
	x0 := layout.pack(p0, startLens)
	f := newFitter(an.eng, layout.nModel, func(modelX []float64) (lik.Model, error) {
		return bsm.New(an.opts.Code, h, layout.unpack(modelX), an.pi)
	}, an.opts.Engine.optOptions(an.opts.MaxIterations))
	res, err := f.run(x0)
	if err != nil {
		return nil, err
	}
	return &FitResult{
		Engine:        an.opts.Engine,
		Hypothesis:    h,
		LnL:           -res.F,
		Params:        layout.unpack(res.X),
		BranchLengths: an.eng.BranchLengths(),
		Iterations:    res.Iterations,
		FuncEvals:     res.FuncEvals,
		Converged:     res.Converged,
		Runtime:       time.Since(start),
	}, nil
}

// SiteSelection is one codon site's empirical-Bayes result. The JSON
// tags are the streaming sinks' wire format.
type SiteSelection struct {
	// Site is the 1-based codon position in the alignment.
	Site int `json:"site"`
	// Probability is the posterior probability of classes 2a+2b
	// (positive selection on the foreground branch).
	Probability float64 `json:"probability"`
}

// TestResult is the complete H0-vs-H1 positive selection test.
type TestResult struct {
	Engine EngineKind
	H0, H1 *FitResult
	LRT    stat.LRT
	// PositiveSites lists sites with posterior probability of
	// positive selection above 0.5 under the H1 fit, descending.
	PositiveSites []SiteSelection
	TotalRuntime  time.Duration
	// TotalIterations is the H0+H1 iteration count, Table III's
	// "Iterations" column.
	TotalIterations int
}

// Run executes the full test: fit H0, fit H1, LRT, and NEB site
// posteriors — CodeML's workflow for one gene/branch.
func (an *Analysis) Run() (*TestResult, error) {
	start := time.Now()
	startLens := an.tree.BranchLengths()
	if an.opts.M0Start {
		m0, err := an.FitM0()
		if err != nil {
			return nil, err
		}
		startLens = m0.BranchLengths
	}
	h0, err := an.FitFrom(bsm.H0, an.initialParams(bsm.H0), startLens)
	if err != nil {
		return nil, err
	}
	// Warm-start H1 at the H0 optimum (ω2 nudged above 1): H1's
	// surface contains H0's optimum, so the alternative fit can only
	// improve from there.
	h1, err := an.FitFrom(bsm.H1, h0.Params, h0.BranchLengths)
	if err != nil {
		return nil, err
	}
	// The H1 fit left the engine at its optimum, where the site
	// posteriors are taken.
	sites := positiveSites(an.eng, an.pats, bsm.Class2a, bsm.Class2b)

	return &TestResult{
		Engine:          an.opts.Engine,
		H0:              h0,
		H1:              h1,
		LRT:             stat.NewLRT(h0.LnL, h1.LnL),
		PositiveSites:   sites,
		TotalRuntime:    time.Since(start),
		TotalIterations: h0.Iterations + h1.Iterations,
	}, nil
}

// positiveSites is the NEB positive-site list at the engine's current
// (fitted) parameters: the sites whose posterior mass in the given
// classes exceeds 0.5, by descending probability.
func positiveSites(eng *lik.Engine, pats *align.Patterns, classes ...int) []SiteSelection {
	prob := lik.ClassMassProbability(eng.ClassPosteriors(), classes...)
	var sites []SiteSelection
	for site, pat := range pats.SiteToPattern {
		if prob[pat] > 0.5 {
			sites = append(sites, SiteSelection{Site: site + 1, Probability: prob[pat]})
		}
	}
	sortSites(sites)
	return sites
}

func sortSites(s []SiteSelection) {
	// Insertion sort by descending probability — the list is short.
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j].Probability > s[j-1].Probability; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// FitM0 fits the one-ratio M0 model on this analysis's data — the
// cheap pre-fit whose branch lengths pipelines use to initialize the
// branch-site runs (Options.M0Start). It reuses the same likelihood
// engine; afterwards callers typically proceed to Fit/Run, which
// reinstall the branch-site model.
func (an *Analysis) FitM0() (*SiteFitResult, error) {
	init := &SiteFitResult{Kind: ModelM0, Kappa: 2, Omega: 0.4}
	return fitSiteModel(an.eng, an.opts, an.pi, ModelM0, init, an.tree.BranchLengths())
}
