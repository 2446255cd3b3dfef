package optimize

import (
	"fmt"
	"math"

	"repro/internal/blas"
	"repro/internal/mat"
)

// Problem is an objective to minimize. F must be defined everywhere
// the optimizer probes (callers use the Transform types to make their
// domain all of ℝⁿ). Grad, when non-nil, supplies the gradient —
// engines provide one that exploits cheap single-branch perturbations;
// when nil a numerical gradient per Options.Gradient is used.
type Problem struct {
	F    func(x []float64) float64
	Grad func(x []float64, g []float64)
}

// GradMethod selects the finite-difference scheme for the default
// numerical gradient.
type GradMethod int

const (
	// GradCentral uses central differences (two evaluations per
	// coordinate, O(h²) accurate) — SlimCodeML's configuration.
	GradCentral GradMethod = iota
	// GradForward uses forward differences (one evaluation per
	// coordinate, O(h)) — the cheaper scheme PAML's ming2 uses.
	GradForward
)

// LineSearchKind selects the step-length rule.
type LineSearchKind int

const (
	// SearchInterpolating backtracks with quadratic interpolation of
	// the step (faster convergence per evaluation).
	SearchInterpolating LineSearchKind = iota
	// SearchHalving backtracks by simple halving, as classic
	// implementations do.
	SearchHalving
)

// Options tunes the BFGS run. Zero values select the defaults noted
// on each field.
type Options struct {
	MaxIterations int            // default 200
	GradTol       float64        // absolute ‖g‖∞ tolerance, default 1e-4
	FTol          float64        // relative Δf tolerance, default 1e-9
	Gradient      GradMethod     // default GradCentral
	LineSearch    LineSearchKind // default SearchInterpolating
	FDStep        float64        // finite-difference base step, default 1e-7
}

func (o *Options) fill() {
	if o.MaxIterations == 0 {
		o.MaxIterations = 200
	}
	if o.GradTol == 0 {
		o.GradTol = 1e-4
	}
	if o.FTol == 0 {
		o.FTol = 1e-9
	}
	if o.FDStep == 0 {
		o.FDStep = 1e-7
	}
}

// Result reports the outcome of a minimization.
type Result struct {
	X          []float64
	F          float64
	Gradient   []float64
	Iterations int // BFGS iterations — the paper's Table III counter
	FuncEvals  int
	GradEvals  int
	Converged  bool
	Status     string
}

// Minimize runs BFGS from x0 and returns the best point found. The
// inverse Hessian approximation starts at the identity and is updated
// with the standard BFGS formula; updates that would destroy positive
// definiteness (sᵀy ≤ 0, possible with numerical gradients) are
// skipped. A failed line search triggers one steepest-descent restart
// before giving up.
func Minimize(p Problem, x0 []float64, opts Options) *Result {
	opts.fill()
	n := len(x0)
	res := &Result{X: append([]float64(nil), x0...)}

	evalF := func(x []float64) float64 {
		res.FuncEvals++
		return p.F(x)
	}
	evalGrad := func(x []float64, fx float64, g []float64) {
		res.GradEvals++
		if p.Grad != nil {
			p.Grad(x, g)
			return
		}
		NumGrad(evalF, x, fx, g, opts)
	}

	x := res.X
	fx := evalF(x)
	g := make([]float64, n)
	evalGrad(x, fx, g)

	h := mat.Identity(n) // inverse Hessian approximation
	d := make([]float64, n)
	xNew := make([]float64, n)
	gNew := make([]float64, n)
	s := make([]float64, n)
	y := make([]float64, n)
	hy := make([]float64, n)
	restarted := false
	stallReset := false
	smallSteps := 0

	for iter := 0; iter < opts.MaxIterations; iter++ {
		if mat.VecMaxAbs(g) <= opts.GradTol {
			res.Converged = true
			res.Status = "gradient tolerance reached"
			break
		}
		res.Iterations++

		// d = -H·g.
		blas.Dgemv(false, -1, h, g, 0, d)
		slope := blas.Ddot(g, d)
		if slope >= 0 {
			// H lost positive definiteness; restart from steepest
			// descent.
			resetIdentity(h)
			for i := range d {
				d[i] = -g[i]
			}
			slope = blas.Ddot(g, d)
		}

		step, fNew, ok := lineSearch(evalF, x, fx, d, slope, xNew, opts)
		if !ok {
			if restarted {
				res.Status = "line search failed"
				break
			}
			restarted = true
			resetIdentity(h)
			continue
		}
		restarted = false

		evalGrad(xNew, fNew, gNew)
		for i := range s {
			s[i] = step * d[i]
			y[i] = gNew[i] - g[i]
		}
		sy := blas.Ddot(s, y)
		if sy > 1e-12*blas.Dnrm2(s)*blas.Dnrm2(y) {
			bfgsUpdate(h, s, y, sy, hy)
		}

		fPrev := fx
		copy(x, xNew)
		fx = fNew
		copy(g, gNew)

		// Require the relative improvement to stay below tolerance on
		// two consecutive iterations: a single tiny step can be a
		// stalled line search, not convergence. If progress stalls
		// while the gradient is still clearly nonzero, the inverse
		// Hessian has gone bad (common with numerical gradients in
		// flat regions); reset it once before giving up.
		if math.Abs(fPrev-fx) <= opts.FTol*(1+math.Abs(fx)) {
			smallSteps++
			if smallSteps >= 2 {
				if mat.VecMaxAbs(g) > 100*opts.GradTol && !stallReset {
					stallReset = true
					smallSteps = 0
					resetIdentity(h)
					continue
				}
				res.Converged = true
				res.Status = "function tolerance reached"
				break
			}
		} else {
			smallSteps = 0
		}
	}
	if res.Status == "" {
		res.Status = "iteration limit reached"
	}
	res.F = fx
	res.Gradient = g
	copy(res.X, x)
	return res
}

// NumGrad fills g with the finite-difference gradient of f over the
// first len(g) coordinates of x (len(g) ≤ len(x)), using opts.Gradient
// and opts.FDStep; the other coordinates stay fixed. fx is the
// objective value at x, reused by forward differences. x is restored
// before return.
func NumGrad(f func([]float64) float64, x []float64, fx float64, g []float64, opts Options) {
	for i := range g {
		hStep := opts.FDStep * (1 + math.Abs(x[i]))
		old := x[i]
		switch opts.Gradient {
		case GradForward:
			x[i] = old + hStep
			g[i] = (f(x) - fx) / hStep
		default: // GradCentral
			x[i] = old + hStep
			fp := f(x)
			x[i] = old - hStep
			fm := f(x)
			g[i] = (fp - fm) / (2 * hStep)
		}
		x[i] = old
	}
}

// lineSearch finds a step along d satisfying the Armijo sufficient
// decrease condition f(x+td) ≤ f(x) + c1·t·gᵀd. It returns the step,
// the new objective value, and whether it succeeded; xNew holds the
// accepted point.
func lineSearch(f func([]float64) float64, x []float64, fx float64, d []float64, slope float64, xNew []float64, opts Options) (float64, float64, bool) {
	const (
		c1       = 1e-4
		maxTrial = 50
		minStep  = 1e-14
	)
	step := 1.0
	for trial := 0; trial < maxTrial && step > minStep; trial++ {
		for i := range xNew {
			xNew[i] = x[i] + step*d[i]
		}
		fNew := f(xNew)
		if fNew <= fx+c1*step*slope && !math.IsNaN(fNew) {
			return step, fNew, true
		}
		if opts.LineSearch == SearchHalving || math.IsNaN(fNew) || math.IsInf(fNew, 0) {
			step *= 0.5
			continue
		}
		// Quadratic interpolation through f(0), f'(0), f(step).
		denom := 2 * (fNew - fx - slope*step)
		next := -slope * step * step / denom
		// Safeguard the interpolated step inside [0.1, 0.5]·step.
		if !(next > 0.1*step) || math.IsNaN(next) {
			next = 0.1 * step
		}
		if next > 0.5*step {
			next = 0.5 * step
		}
		step = next
	}
	return 0, fx, false
}

// bfgsUpdate applies the inverse-Hessian BFGS update
// H ← (I − ρsyᵀ)H(I − ρysᵀ) + ρssᵀ with ρ = 1/sᵀy.
func bfgsUpdate(h *mat.Matrix, s, y []float64, sy float64, hy []float64) {
	rho := 1 / sy
	// hy = H·y.
	blas.Dgemv(false, 1, h, y, 0, hy)
	yhy := blas.Ddot(y, hy)
	// H += ρ(1 + ρ·yᵀHy)·ssᵀ − ρ(s·(Hy)ᵀ + (Hy)·sᵀ).
	c := rho * (1 + rho*yhy)
	n := h.Rows
	for i := 0; i < n; i++ {
		row := h.Row(i)
		si, hyi := s[i], hy[i]
		for j := 0; j < n; j++ {
			row[j] += c*si*s[j] - rho*(si*hy[j]+hyi*s[j])
		}
	}
}

func resetIdentity(h *mat.Matrix) {
	h.Zero()
	for i := 0; i < h.Rows; i++ {
		h.Set(i, i, 1)
	}
}

// CheckDomain panics with a descriptive message when a caller-supplied
// x contains NaN or Inf — catching optimizer escapes early.
func CheckDomain(x []float64) {
	for i, v := range x {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			panic(fmt.Sprintf("optimize: coordinate %d is %g", i, v))
		}
	}
}
