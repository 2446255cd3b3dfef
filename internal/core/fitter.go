package core

import (
	"math"

	"repro/internal/lik"
	"repro/internal/optimize"
)

// fitter drives BFGS over a packed vector [model params…, one
// log-branch-length per branch] for any lik.Model family. It owns the
// two optimizations every fit here relies on:
//
//   - model rebuilds (and their eigendecompositions) are skipped when
//     an optimizer probe only moved branch lengths;
//   - branch-length gradient entries use the engine's O(depth)
//     single-branch path update instead of full pruning passes.
type fitter struct {
	eng       *lik.Engine
	build     func(modelX []float64) (lik.Model, error)
	nModel    int
	branchIDs []int
	opts      optimize.Options

	lastModelX []float64
	haveModel  bool
}

func newFitter(eng *lik.Engine, nModel int, build func([]float64) (lik.Model, error), opts optimize.Options) *fitter {
	return &fitter{
		eng:       eng,
		build:     build,
		nModel:    nModel,
		branchIDs: eng.BranchIDs(),
		opts:      opts,
	}
}

// install pushes x into the engine, rebuilding the model only when the
// model-parameter prefix changed.
func (f *fitter) install(x []float64) error {
	modelX := x[:f.nModel]
	if !f.haveModel || !sliceEqual(f.lastModelX, modelX) {
		m, err := f.build(modelX)
		if err != nil {
			return err
		}
		if err := f.eng.SetModel(m); err != nil {
			return err
		}
		f.lastModelX = append(f.lastModelX[:0], modelX...)
		f.haveModel = true
	}
	full := f.eng.BranchLengths()
	for k, id := range f.branchIDs {
		full[id] = trBranch.External(x[f.nModel+k])
	}
	return f.eng.SetBranchLengths(full)
}

func (f *fitter) objective(x []float64) float64 {
	if err := f.install(x); err != nil {
		// Out-of-domain probe: infinitely bad, line search backtracks.
		return math.Inf(1)
	}
	return -f.eng.LogLikelihood()
}

func (f *fitter) gradient(x, g []float64) {
	fx := f.objective(x) // sync engine state to x
	optimize.NumGrad(f.objective, x, fx, g[:f.nModel], f.opts)
	// Restore the center state, then use cheap path updates for the
	// branch coordinates.
	f.objective(x)
	for k, id := range f.branchIDs {
		i := f.nModel + k
		hStep := f.opts.FDStep * (1 + math.Abs(x[i]))
		if f.opts.Gradient == optimize.GradForward {
			fp := -f.eng.BranchLogLikelihood(id, trBranch.External(x[i]+hStep))
			g[i] = (fp - fx) / hStep
		} else {
			fp := -f.eng.BranchLogLikelihood(id, trBranch.External(x[i]+hStep))
			fm := -f.eng.BranchLogLikelihood(id, trBranch.External(x[i]-hStep))
			g[i] = (fp - fm) / (2 * hStep)
		}
	}
}

// run minimizes from x0 and leaves the engine installed at the best
// point found.
func (f *fitter) run(x0 []float64) (*optimize.Result, error) {
	res := optimize.Minimize(optimize.Problem{F: f.objective, Grad: f.gradient}, x0, f.opts)
	if err := f.install(res.X); err != nil {
		return nil, err
	}
	return res, nil
}

func sliceEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
