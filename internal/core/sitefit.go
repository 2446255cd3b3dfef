package core

import (
	"fmt"
	"math"
	"time"

	"repro/internal/align"
	"repro/internal/codon"
	"repro/internal/lik"
	"repro/internal/newick"
	"repro/internal/sitemodel"
	"repro/internal/stat"
)

// SiteModelKind selects one of the classic codon site models fitted
// through the same optimized engine (paper §V-B).
type SiteModelKind int

const (
	// ModelM0 is the one-ratio model.
	ModelM0 SiteModelKind = iota
	// ModelM1a is the nearly-neutral two-class model.
	ModelM1a
	// ModelM2a is the positive-selection three-class model.
	ModelM2a
	// ModelM7 is the beta site model (ω ~ Beta(p, q), discretized).
	ModelM7
	// ModelM8 is the beta&ω model (beta plus an ωs ≥ 1 class).
	ModelM8
)

// String names the model as PAML does.
func (k SiteModelKind) String() string {
	switch k {
	case ModelM0:
		return "M0"
	case ModelM1a:
		return "M1a"
	case ModelM2a:
		return "M2a"
	case ModelM7:
		return "M7"
	case ModelM8:
		return "M8"
	}
	return fmt.Sprintf("sitemodel(%d)", int(k))
}

// SiteFitResult is the outcome of one site-model fit. Fields that the
// model lacks (e.g. Omega2 under M1a) are zero.
type SiteFitResult struct {
	Kind          SiteModelKind
	LnL           float64
	Kappa         float64
	Omega         float64 // M0's single ratio
	Omega0        float64
	Omega2        float64 // M2a's ω2 / M8's ωs
	P0, P1        float64
	BetaP, BetaQ  float64 // M7/M8 beta shape parameters
	BranchLengths []float64
	Iterations    int
	FuncEvals     int
	Converged     bool
	Runtime       time.Duration
}

// SiteAnalysis fits site models (which have no foreground branch) on
// one alignment and tree. It shares the engine configurations of
// Analysis.
type SiteAnalysis struct {
	opts  Options
	tree  *newick.Tree
	pats  *align.Patterns
	names []string
	pi    []float64
	eng   *lik.Engine
}

// NewSiteAnalysis prepares a site-model analysis. Branch marks on the
// tree are ignored (site models treat all branches equally).
func NewSiteAnalysis(a *align.Alignment, t *newick.Tree, opts Options) (*SiteAnalysis, error) {
	opts.fill()
	ca, err := align.EncodeCodons(a, opts.Code)
	if err != nil {
		return nil, err
	}
	pats := align.Compress(ca)
	pi, err := resolveFrequencies(&opts, pats)
	if err != nil {
		return nil, err
	}
	eng, err := lik.New(t, pats, ca.Names, opts.likConfig())
	if err != nil {
		return nil, err
	}
	return &SiteAnalysis{
		opts:  opts,
		tree:  t.Clone(),
		pats:  pats,
		names: ca.Names,
		pi:    pi,
		eng:   eng,
	}, nil
}

// Close releases the analysis's engine-owned worker pool, if any
// (Options.Workers > 0). Safe to call multiple times.
func (sa *SiteAnalysis) Close() { sa.eng.Close() }

// resolveFrequencies returns the fixed Options.Frequencies when set
// (validated against the code's state count), otherwise estimates them
// from the patterns with the selected estimator.
func resolveFrequencies(opts *Options, pats *align.Patterns) ([]float64, error) {
	if opts.Frequencies != nil {
		if len(opts.Frequencies) != pats.Code.NumStates() {
			return nil, fmt.Errorf("core: %d fixed frequencies for %d codon states",
				len(opts.Frequencies), pats.Code.NumStates())
		}
		return opts.Frequencies, nil
	}
	return estimateFrequencies(opts.Freq, pats)
}

// estimateFrequencies applies the selected CodonFreq estimator to the
// compressed patterns.
func estimateFrequencies(freq FreqEstimator, pats *align.Patterns) ([]float64, error) {
	gc := pats.Code
	switch freq {
	case FreqF61:
		return codon.F61(gc, pats.CountCodonsCompressed())
	case FreqF3x4:
		return codon.F3x4(gc, pats.NucCountsByPositionCompressed())
	case FreqUniform:
		return codon.UniformFrequencies(gc), nil
	}
	return nil, fmt.Errorf("core: unknown frequency estimator %d", freq)
}

// siteModelSpec packs/unpacks one model family's parameters.
type siteModelSpec struct {
	nModel int
	pack   func(r *SiteFitResult) []float64
	build  func(gc *codon.GeneticCode, pi []float64, modelX []float64) (lik.Model, error)
	read   func(modelX []float64, dst *SiteFitResult)
}

func siteSpec(kind SiteModelKind) siteModelSpec {
	switch kind {
	case ModelM0:
		return siteModelSpec{
			nModel: 2,
			pack: func(r *SiteFitResult) []float64 {
				return []float64{trKappa.Internal(r.Kappa), trKappa.Internal(r.Omega)}
			},
			build: func(gc *codon.GeneticCode, pi, x []float64) (lik.Model, error) {
				return sitemodel.NewM0(gc, trKappa.External(x[0]), trKappa.External(x[1]), pi)
			},
			read: func(x []float64, dst *SiteFitResult) {
				dst.Kappa = trKappa.External(x[0])
				dst.Omega = trKappa.External(x[1])
			},
		}
	case ModelM1a:
		return siteModelSpec{
			nModel: 3,
			pack: func(r *SiteFitResult) []float64 {
				return []float64{
					trKappa.Internal(r.Kappa),
					trOmega0.Internal(r.Omega0),
					trOmega0.Internal(r.P0),
				}
			},
			build: func(gc *codon.GeneticCode, pi, x []float64) (lik.Model, error) {
				return sitemodel.NewM1a(gc, trKappa.External(x[0]), trOmega0.External(x[1]), trOmega0.External(x[2]), pi)
			},
			read: func(x []float64, dst *SiteFitResult) {
				dst.Kappa = trKappa.External(x[0])
				dst.Omega0 = trOmega0.External(x[1])
				dst.P0 = trOmega0.External(x[2])
			},
		}
	case ModelM2a:
		return siteModelSpec{
			nModel: 5,
			pack: func(r *SiteFitResult) []float64 {
				ys := trProp.Internal([]float64{r.P0, r.P1})
				return []float64{
					trKappa.Internal(r.Kappa),
					trOmega0.Internal(r.Omega0),
					trOmega2.Internal(r.Omega2),
					ys[0], ys[1],
				}
			},
			build: func(gc *codon.GeneticCode, pi, x []float64) (lik.Model, error) {
				props := trProp.External([]float64{x[3], x[4]})
				return sitemodel.NewM2a(gc, trKappa.External(x[0]), trOmega0.External(x[1]),
					trOmega2.External(x[2]), props[0], props[1], pi)
			},
			read: func(x []float64, dst *SiteFitResult) {
				dst.Kappa = trKappa.External(x[0])
				dst.Omega0 = trOmega0.External(x[1])
				dst.Omega2 = trOmega2.External(x[2])
				props := trProp.External([]float64{x[3], x[4]})
				dst.P0, dst.P1 = props[0], props[1]
			},
		}
	case ModelM7:
		return siteModelSpec{
			nModel: 3,
			pack: func(r *SiteFitResult) []float64 {
				return []float64{
					trKappa.Internal(r.Kappa),
					trKappa.Internal(r.BetaP),
					trKappa.Internal(r.BetaQ),
				}
			},
			build: func(gc *codon.GeneticCode, pi, x []float64) (lik.Model, error) {
				return sitemodel.NewM7(gc, trKappa.External(x[0]),
					trKappa.External(x[1]), trKappa.External(x[2]), 0, pi)
			},
			read: func(x []float64, dst *SiteFitResult) {
				dst.Kappa = trKappa.External(x[0])
				dst.BetaP = trKappa.External(x[1])
				dst.BetaQ = trKappa.External(x[2])
			},
		}
	case ModelM8:
		return siteModelSpec{
			nModel: 5,
			pack: func(r *SiteFitResult) []float64 {
				return []float64{
					trKappa.Internal(r.Kappa),
					trKappa.Internal(r.BetaP),
					trKappa.Internal(r.BetaQ),
					trOmega0.Internal(r.P0),
					trOmega2.Internal(r.Omega2),
				}
			},
			build: func(gc *codon.GeneticCode, pi, x []float64) (lik.Model, error) {
				return sitemodel.NewM8(gc, trKappa.External(x[0]),
					trKappa.External(x[1]), trKappa.External(x[2]),
					trOmega0.External(x[3]), trOmega2.External(x[4]), 0, pi)
			},
			read: func(x []float64, dst *SiteFitResult) {
				dst.Kappa = trKappa.External(x[0])
				dst.BetaP = trKappa.External(x[1])
				dst.BetaQ = trKappa.External(x[2])
				dst.P0 = trOmega0.External(x[3])
				dst.Omega2 = trOmega2.External(x[4])
			},
		}
	}
	panic(fmt.Sprintf("core: unknown site model %d", int(kind)))
}

// Fit maximizes the likelihood under the site model from a seeded
// starting point.
func (sa *SiteAnalysis) Fit(kind SiteModelKind) (*SiteFitResult, error) {
	start := &SiteFitResult{
		Kind:   kind,
		Kappa:  2,
		Omega:  0.4,
		Omega0: 0.2,
		Omega2: 2.0,
		P0:     0.6,
		P1:     0.3,
		BetaP:  0.8,
		BetaQ:  2.0,
	}
	if kind == ModelM8 {
		start.P0 = 0.9 // proportion of the beta part
	}
	return sa.FitFrom(kind, start, sa.tree.BranchLengths())
}

// FitFrom maximizes the likelihood under the site model from the given
// starting point (branch lengths indexed by node ID).
func (sa *SiteAnalysis) FitFrom(kind SiteModelKind, init *SiteFitResult, startLens []float64) (*SiteFitResult, error) {
	return fitSiteModel(sa.eng, sa.opts, sa.pi, kind, init, startLens)
}

// fitSiteModel maximizes the likelihood of a site model on eng from
// init and startLens (indexed by node ID) under the frequencies pi —
// the one fit body behind SiteAnalysis.FitFrom and Analysis.FitM0.
func fitSiteModel(eng *lik.Engine, opts Options, pi []float64, kind SiteModelKind, init *SiteFitResult, startLens []float64) (*SiteFitResult, error) {
	begin := time.Now()
	spec := siteSpec(kind)
	x0 := spec.pack(init)
	for _, id := range eng.BranchIDs() {
		x0 = append(x0, trBranch.Internal(math.Max(startLens[id], 1e-6)))
	}
	f := newFitter(eng, spec.nModel, func(modelX []float64) (lik.Model, error) {
		return spec.build(opts.Code, pi, modelX)
	}, opts.Engine.optOptions(opts.MaxIterations))
	res, err := f.run(x0)
	if err != nil {
		return nil, err
	}
	out := &SiteFitResult{
		Kind:          kind,
		LnL:           -res.F,
		BranchLengths: eng.BranchLengths(),
		Iterations:    res.Iterations,
		FuncEvals:     res.FuncEvals,
		Converged:     res.Converged,
		Runtime:       time.Since(begin),
	}
	spec.read(res.X[:spec.nModel], out)
	return out, nil
}

// SiteTestResult is CodeML's M1a-vs-M2a site test for positive
// selection.
type SiteTestResult struct {
	M1a, M2a *SiteFitResult
	// LRT compares M1a (null) to M2a (alternative) with 2 degrees of
	// freedom.
	Statistic float64
	PValue    float64
	// PositiveSites lists sites whose M2a class-2 NEB posterior
	// exceeds 0.5, descending.
	PositiveSites []SiteSelection
}

// SiteTest fits M1a and M2a (warm-starting M2a from M1a) and runs the
// df = 2 likelihood ratio test.
func (sa *SiteAnalysis) SiteTest() (*SiteTestResult, error) {
	m1a, err := sa.Fit(ModelM1a)
	if err != nil {
		return nil, err
	}
	init := &SiteFitResult{
		Kappa:  m1a.Kappa,
		Omega0: m1a.Omega0,
		Omega2: 2.0,
		P0:     clampProp(m1a.P0 * 0.95),
		P1:     clampProp((1 - m1a.P0) * 0.95),
	}
	m2a, err := sa.FitFrom(ModelM2a, init, m1a.BranchLengths)
	if err != nil {
		return nil, err
	}

	statVal := 2 * (m2a.LnL - m1a.LnL)
	if statVal < 0 {
		statVal = 0
	}
	res := &SiteTestResult{
		M1a:       m1a,
		M2a:       m2a,
		Statistic: statVal,
		PValue:    stat.ChiSquareSF(statVal, 2),
	}

	// NEB sites under the M2a fit (class index 2).
	res.PositiveSites = positiveSites(sa.eng, sa.pats, 2)
	return res, nil
}

// BetaSiteTestResult is CodeML's second site test: M7 ("beta") as the
// null against M8 ("beta&ω") with 2 degrees of freedom.
type BetaSiteTestResult struct {
	M7, M8    *SiteFitResult
	Statistic float64
	PValue    float64
	// PositiveSites lists sites whose M8 ωs-class NEB posterior
	// exceeds 0.5, descending.
	PositiveSites []SiteSelection
}

// BetaSiteTest fits M7 and M8 (warm-starting M8 from M7) and runs the
// df = 2 likelihood ratio test.
func (sa *SiteAnalysis) BetaSiteTest() (*BetaSiteTestResult, error) {
	m7, err := sa.Fit(ModelM7)
	if err != nil {
		return nil, err
	}
	init := &SiteFitResult{
		Kappa:  m7.Kappa,
		BetaP:  m7.BetaP,
		BetaQ:  m7.BetaQ,
		P0:     0.9,
		Omega2: 2.0,
	}
	m8, err := sa.FitFrom(ModelM8, init, m7.BranchLengths)
	if err != nil {
		return nil, err
	}
	statVal := 2 * (m8.LnL - m7.LnL)
	if statVal < 0 {
		statVal = 0
	}
	res := &BetaSiteTestResult{
		M7:        m7,
		M8:        m8,
		Statistic: statVal,
		PValue:    stat.ChiSquareSF(statVal, 2),
	}
	// NEB sites under the M8 fit: the last class is the ωs class.
	res.PositiveSites = positiveSites(sa.eng, sa.pats, sitemodel.DefaultBetaCategories)
	return res, nil
}

func clampProp(p float64) float64 {
	if p < 0.02 {
		return 0.02
	}
	if p > 0.96 {
		return 0.96
	}
	return p
}
