package core

import (
	"fmt"
	"math"

	"repro/internal/bsm"
)

// BEBResult holds Bayes Empirical Bayes site posteriors.
type BEBResult struct {
	// SiteProbability[k] is the BEB posterior probability that codon
	// site k+1 evolves under positive selection on the foreground
	// branch (classes 2a+2b), integrated over the parameter grid.
	SiteProbability []float64
	// GridPoints is the number of (p0, p1, ω2) grid points evaluated.
	GridPoints int
}

// BEB computes Bayes Empirical Bayes posteriors for positive selection
// per site (Yang, Wong & Nielsen 2005), the robust alternative to NEB
// the paper's pipeline description references ("Bayesian approaches
// are used to assess the posterior probability of a particular codon
// ... to be evolving under positive selection", §I-A).
//
// Instead of plugging in the MLEs (NEB), BEB integrates the class
// posteriors over a uniform prior grid on the proportion simplex
// (p0, p1) and ω2 ∈ (1, maxOmega2], holding κ, ω0 and branch lengths
// at their H1 estimates — the same dimension reduction PAML applies.
// gridSize points are used per axis (PAML uses 10; 5 is a good
// cost/accuracy compromise here). The grid requires gridSize³ full
// likelihood evaluations, so this costs roughly that many optimizer
// iterations.
func (an *Analysis) BEB(h1 *FitResult, gridSize int) (*BEBResult, error) {
	if h1 == nil || h1.Hypothesis != bsm.H1 {
		return nil, fmt.Errorf("core: BEB needs an H1 fit")
	}
	if gridSize < 2 {
		return nil, fmt.Errorf("core: BEB grid size must be ≥ 2, got %d", gridSize)
	}
	const maxOmega2 = 11.0

	type gridEval struct {
		lnL  float64
		post [][]float64
	}
	var evals []gridEval
	maxLnL := math.Inf(-1)

	// Uniform grid over the proportion simplex via (p0+p1, p0 ratio),
	// and uniform ω2 in (1, maxOmega2]. Grid cell centers avoid the
	// boundaries.
	for i := 0; i < gridSize; i++ {
		pSum := (float64(i) + 0.5) / float64(gridSize) // p0+p1 ∈ (0,1)
		for j := 0; j < gridSize; j++ {
			r := (float64(j) + 0.5) / float64(gridSize) // p0/(p0+p1)
			p0 := pSum * r
			p1 := pSum * (1 - r)
			if p0 < 1e-6 || p1 < 1e-6 {
				continue
			}
			for k := 0; k < gridSize; k++ {
				w2 := 1 + (maxOmega2-1)*(float64(k)+0.5)/float64(gridSize)
				params := h1.Params
				params.P0, params.P1, params.Omega2 = p0, p1, w2
				if err := an.install(bsm.H1, params, h1.BranchLengths); err != nil {
					return nil, err
				}
				lnL, post := an.eng.LogLikelihoodAndPosteriors()
				if math.IsInf(lnL, -1) || math.IsNaN(lnL) {
					continue
				}
				evals = append(evals, gridEval{lnL: lnL, post: post})
				if lnL > maxLnL {
					maxLnL = lnL
				}
			}
		}
	}
	if len(evals) == 0 {
		return nil, fmt.Errorf("core: BEB grid produced no valid evaluations")
	}

	// Posterior weights w_g ∝ p(X|θ_g) under the uniform grid prior.
	weightSum := 0.0
	weights := make([]float64, len(evals))
	for g, ev := range evals {
		weights[g] = math.Exp(ev.lnL - maxLnL)
		weightSum += weights[g]
	}

	npat := an.pats.NumPatterns()
	patProb := make([]float64, npat)
	for g, ev := range evals {
		w := weights[g] / weightSum
		for p := 0; p < npat; p++ {
			patProb[p] += w * (ev.post[p][bsm.Class2a] + ev.post[p][bsm.Class2b])
		}
	}

	out := &BEBResult{
		SiteProbability: make([]float64, an.pats.NumSites()),
		GridPoints:      len(evals),
	}
	for site, pat := range an.pats.SiteToPattern {
		out.SiteProbability[site] = patProb[pat]
	}
	// Restore the engine to the H1 optimum.
	if err := an.install(bsm.H1, h1.Params, h1.BranchLengths); err != nil {
		return nil, err
	}
	return out, nil
}

// PositiveSitesBEB filters the BEB posteriors at a threshold,
// returning sites sorted by descending probability.
func (r *BEBResult) PositiveSitesBEB(threshold float64) []SiteSelection {
	var out []SiteSelection
	for k, p := range r.SiteProbability {
		if p > threshold {
			out = append(out, SiteSelection{Site: k + 1, Probability: p})
		}
	}
	sortSites(out)
	return out
}
