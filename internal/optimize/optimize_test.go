package optimize

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestLogTransformRoundTrip(t *testing.T) {
	tr := LogTransform{Lo: 1}
	for _, x := range []float64{1.0001, 1.5, 2, 10, 1e6} {
		y := tr.Internal(x)
		back := tr.External(y)
		if math.Abs(back-x) > 1e-9*(1+x) {
			t.Fatalf("round trip %g → %g → %g", x, y, back)
		}
	}
	if tr.External(-1e9) <= 1 {
		t.Fatal("External must stay above Lo")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic below Lo")
		}
	}()
	tr.Internal(0.5)
}

func TestLogitTransformRoundTrip(t *testing.T) {
	tr := LogitTransform{Lo: 0, Hi: 1}
	for _, x := range []float64{1e-6, 0.2, 0.5, 0.9, 1 - 1e-6} {
		back := tr.External(tr.Internal(x))
		if math.Abs(back-x) > 1e-9 {
			t.Fatalf("round trip failed for %g: %g", x, back)
		}
	}
	// Range respected at extremes.
	if v := tr.External(1e3); !(v < 1) {
		t.Fatalf("External(large) = %g escapes (0,1)", v)
	}
	if v := tr.External(-1e3); !(v > 0) {
		t.Fatalf("External(-large) = %g escapes (0,1)", v)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic outside (0,1)")
		}
	}()
	tr.Internal(1.5)
}

func TestIdentityTransform(t *testing.T) {
	tr := IdentityTransform{}
	if tr.External(3.5) != 3.5 || tr.Internal(-2) != -2 {
		t.Fatal("identity transform not identity")
	}
}

func TestSimplexTransformRoundTrip(t *testing.T) {
	tr := SimplexTransform{K: 3}
	cases := [][]float64{{0.5, 0.3}, {0.01, 0.01}, {0.98, 0.01}, {1.0 / 3, 1.0 / 3}}
	for _, x := range cases {
		y := tr.Internal(x)
		back := tr.External(y)
		for i := range x {
			if math.Abs(back[i]-x[i]) > 1e-12 {
				t.Fatalf("round trip %v → %v", x, back)
			}
		}
	}
}

func TestSimplexTransformAlwaysValid(t *testing.T) {
	tr := SimplexTransform{K: 3}
	f := func(y0, y1 float64) bool {
		if math.Abs(y0) > 500 || math.Abs(y1) > 500 {
			return true
		}
		x := tr.External([]float64{y0, y1})
		sum := 0.0
		for _, v := range x {
			if !(v >= 0) || v >= 1 {
				return false
			}
			sum += v
		}
		return sum < 1+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSimplexTransformPanics(t *testing.T) {
	tr := SimplexTransform{K: 3}
	for _, bad := range [][]float64{{0.5}, {0.5, 0.6}, {0, 0.5}} {
		func() {
			defer func() { recover() }()
			tr.Internal(bad)
			if len(bad) == 2 && bad[0] > 0 && bad[0]+bad[1] < 1 {
				return // actually valid
			}
			t.Fatalf("expected panic for %v", bad)
		}()
	}
}

func TestMinimizeQuadratic(t *testing.T) {
	// f(x) = Σ (x_i − i)², minimum at x_i = i.
	p := Problem{F: func(x []float64) float64 {
		s := 0.0
		for i, v := range x {
			d := v - float64(i)
			s += d * d
		}
		return s
	}}
	res := Minimize(p, make([]float64, 5), Options{})
	if !res.Converged {
		t.Fatalf("did not converge: %s", res.Status)
	}
	for i, v := range res.X {
		if math.Abs(v-float64(i)) > 1e-5 {
			t.Fatalf("x[%d] = %g", i, v)
		}
	}
	if res.F > 1e-9 {
		t.Fatalf("f = %g", res.F)
	}
}

func TestMinimizeRosenbrock(t *testing.T) {
	rosen := func(x []float64) float64 {
		a := 1 - x[0]
		b := x[1] - x[0]*x[0]
		return a*a + 100*b*b
	}
	for _, opts := range []Options{
		{Gradient: GradCentral, LineSearch: SearchInterpolating, MaxIterations: 500},
		{Gradient: GradForward, LineSearch: SearchHalving, MaxIterations: 2000, FTol: 1e-14, FDStep: 1e-8},
	} {
		res := Minimize(Problem{F: rosen}, []float64{-1.2, 1}, opts)
		if math.Abs(res.X[0]-1) > 1e-3 || math.Abs(res.X[1]-1) > 1e-3 {
			t.Fatalf("opts %+v: got %v (f=%g, %s)", opts, res.X, res.F, res.Status)
		}
	}
}

func TestMinimizeWithAnalyticGradient(t *testing.T) {
	p := Problem{
		F: func(x []float64) float64 { return (x[0] - 3) * (x[0] - 3) },
		Grad: func(x, g []float64) {
			g[0] = 2 * (x[0] - 3)
		},
	}
	res := Minimize(p, []float64{-10}, Options{})
	if math.Abs(res.X[0]-3) > 1e-6 {
		t.Fatalf("x = %v", res.X)
	}
	// Analytic gradient means each gradient costs no F evaluations
	// beyond line search probes; GradEvals counted separately.
	if res.GradEvals == 0 {
		t.Fatal("gradient evaluations not counted")
	}
}

func TestMinimizeNonConvex(t *testing.T) {
	// f(x) = sin(x) + x²/20 has its global minimum where
	// cos(x) + x/10 = 0, at x ≈ -1.4276.
	f := func(x []float64) float64 { return math.Sin(x[0]) + x[0]*x[0]/20 }
	res := Minimize(Problem{F: f}, []float64{0}, Options{})
	if math.Abs(res.X[0]-(-1.4276)) > 1e-2 {
		t.Fatalf("x = %v, f = %g", res.X, res.F)
	}
	if math.Abs(math.Cos(res.X[0])+res.X[0]/10) > 1e-4 {
		t.Fatalf("first-order condition violated at %g", res.X[0])
	}
}

func TestMinimizeIterationLimit(t *testing.T) {
	// Tight iteration cap must be respected and reported.
	rosen := func(x []float64) float64 {
		a := 1 - x[0]
		b := x[1] - x[0]*x[0]
		return a*a + 100*b*b
	}
	res := Minimize(Problem{F: rosen}, []float64{-1.2, 1}, Options{MaxIterations: 3})
	if res.Iterations > 3 {
		t.Fatalf("iterations %d exceeds cap", res.Iterations)
	}
}

func TestMinimizeCountsEvaluations(t *testing.T) {
	n := 0
	p := Problem{F: func(x []float64) float64 {
		n++
		return x[0] * x[0]
	}}
	res := Minimize(p, []float64{4}, Options{})
	if res.FuncEvals != n {
		t.Fatalf("FuncEvals = %d, actual calls %d", res.FuncEvals, n)
	}
}

func TestMinimizeAlreadyAtOptimum(t *testing.T) {
	p := Problem{F: func(x []float64) float64 { return x[0] * x[0] }}
	res := Minimize(p, []float64{0}, Options{})
	if !res.Converged || res.Iterations != 0 {
		t.Fatalf("should converge immediately: %+v", res)
	}
}

// Minimization through transforms: maximize a beta-like likelihood
// over (0,1) via LogitTransform, checking the external optimum.
func TestMinimizeThroughTransform(t *testing.T) {
	tr := LogitTransform{Lo: 0, Hi: 1}
	// Negative log of x^3(1-x)^7: maximum at x = 0.3.
	p := Problem{F: func(y []float64) float64 {
		x := tr.External(y[0])
		return -(3*math.Log(x) + 7*math.Log(1-x))
	}}
	res := Minimize(p, []float64{0}, Options{})
	x := tr.External(res.X[0])
	if math.Abs(x-0.3) > 1e-5 {
		t.Fatalf("optimum at %g, want 0.3", x)
	}
}

func TestNumGradAccuracy(t *testing.T) {
	f := func(x []float64) float64 { return math.Exp(x[0]) * math.Sin(x[1]) }
	x := []float64{0.5, 1.2}
	fx := f(x)
	g := make([]float64, 2)
	NumGrad(f, x, fx, g, Options{FDStep: 1e-7, Gradient: GradCentral})
	wantG0 := math.Exp(0.5) * math.Sin(1.2)
	wantG1 := math.Exp(0.5) * math.Cos(1.2)
	if math.Abs(g[0]-wantG0) > 1e-6 || math.Abs(g[1]-wantG1) > 1e-6 {
		t.Fatalf("central gradient %v, want [%g %g]", g, wantG0, wantG1)
	}
	NumGrad(f, x, fx, g, Options{FDStep: 1e-7, Gradient: GradForward})
	if math.Abs(g[0]-wantG0) > 1e-4 || math.Abs(g[1]-wantG1) > 1e-4 {
		t.Fatalf("forward gradient %v", g)
	}
	// x must be restored.
	if x[0] != 0.5 || x[1] != 1.2 {
		t.Fatal("NumGrad did not restore x")
	}
}

func TestCheckDomain(t *testing.T) {
	CheckDomain([]float64{1, 2, 3}) // must not panic
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for NaN")
		}
	}()
	CheckDomain([]float64{1, math.NaN()})
}

// Property: on random positive-definite quadratics BFGS reaches the
// known optimum.
func TestMinimizeRandomQuadratics(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(6)
		// Diagonal-dominant SPD matrix A and target c; f = (x−c)ᵀA(x−c).
		a := make([][]float64, n)
		c := make([]float64, n)
		for i := range a {
			a[i] = make([]float64, n)
			for j := range a[i] {
				a[i][j] = 0.1 * rng.NormFloat64()
			}
			a[i][i] += float64(n)
			c[i] = rng.NormFloat64()
		}
		obj := func(x []float64) float64 {
			s := 0.0
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					s += (x[i] - c[i]) * (a[i][j] + a[j][i]) / 2 * (x[j] - c[j])
				}
			}
			return s
		}
		res := Minimize(Problem{F: obj}, make([]float64, n), Options{MaxIterations: 400})
		for i := range c {
			if math.Abs(res.X[i]-c[i]) > 1e-3 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// Objectives that return +Inf outside their domain (how the likelihood
// wrappers signal constraint violations) must not derail the line
// search: it backtracks into the domain.
func TestMinimizeWithInfiniteBarrier(t *testing.T) {
	evals := 0
	f := func(x []float64) float64 {
		evals++
		if x[0] >= 10 {
			return math.Inf(1)
		}
		return (x[0] - 3) * (x[0] - 3)
	}
	// Start near the barrier: the first Newton-ish probes overshoot
	// into the Inf region and must backtrack.
	res := Minimize(Problem{F: f}, []float64{9.5}, Options{MaxIterations: 200})
	if math.Abs(res.X[0]-3) > 1e-4 {
		t.Fatalf("optimum at %g, want 3 (%s)", res.X[0], res.Status)
	}
	if evals == 0 {
		t.Fatal("objective never evaluated")
	}
}

// The same barrier expressed through a transform — how the likelihood
// code actually handles constrained parameters — must be easy: the
// internal surface is a clean quadratic.
func TestMinimizeBarrierViaTransform(t *testing.T) {
	tr := LogTransform{Lo: 0}
	// Minimize (ln x − 1)² over x > 0 in internal coordinates y = ln x.
	f := func(y []float64) float64 {
		x := tr.External(y[0])
		return (math.Log(x) - 1) * (math.Log(x) - 1)
	}
	res := Minimize(Problem{F: f}, []float64{tr.Internal(0.1)}, Options{})
	if got := tr.External(res.X[0]); math.Abs(got-math.E) > 1e-4 {
		t.Fatalf("optimum at %g, want e", got)
	}
}

// NaN from the objective must be treated like failure, not accepted.
func TestMinimizeRejectsNaN(t *testing.T) {
	calls := 0
	f := func(x []float64) float64 {
		calls++
		if x[0] > 2 {
			return math.NaN()
		}
		return (x[0] - 1.5) * (x[0] - 1.5)
	}
	res := Minimize(Problem{F: f}, []float64{0}, Options{MaxIterations: 100})
	if math.IsNaN(res.F) {
		t.Fatal("optimizer accepted a NaN objective value")
	}
	if math.Abs(res.X[0]-1.5) > 1e-4 {
		t.Fatalf("optimum at %g, want 1.5", res.X[0])
	}
}
