package blas

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/mat"
)

func randMat(rng *rand.Rand, r, c int) *mat.Matrix {
	m := mat.New(r, c)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

func randVec(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

func TestDdot(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	y := []float64{5, 4, 3, 2, 1}
	if got := Ddot(x, y); got != 35 {
		t.Fatalf("Ddot = %g, want 35", got)
	}
	if Ddot(nil, nil) != 0 {
		t.Fatal("empty Ddot should be 0")
	}
}

func TestDdotMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Ddot([]float64{1}, []float64{1, 2})
}

// Property: the unrolled Ddot agrees with a plain loop.
func TestDdotAgainstPlainLoop(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(40)
		x, y := randVec(rng, n), randVec(rng, n)
		want := 0.0
		for i := range x {
			want += x[i] * y[i]
		}
		return math.Abs(Ddot(x, y)-want) <= 1e-12*(1+math.Abs(want))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDaxpy(t *testing.T) {
	y := []float64{1, 1, 1}
	Daxpy(2, []float64{1, 2, 3}, y)
	if !mat.VecEqualApprox(y, []float64{3, 5, 7}, 0) {
		t.Fatalf("Daxpy: %v", y)
	}
	// alpha == 0 must leave y untouched.
	Daxpy(0, []float64{100, 100, 100}, y)
	if !mat.VecEqualApprox(y, []float64{3, 5, 7}, 0) {
		t.Fatalf("Daxpy alpha=0 modified y: %v", y)
	}
}

func TestDscal(t *testing.T) {
	x := []float64{1, 2}
	Dscal(3, x)
	if !mat.VecEqualApprox(x, []float64{3, 6}, 0) {
		t.Fatalf("Dscal: %v", x)
	}
}

func TestDnrm2(t *testing.T) {
	if got := Dnrm2([]float64{3, 4}); math.Abs(got-5) > 1e-15 {
		t.Fatalf("Dnrm2 = %g", got)
	}
	// Overflow safety.
	if got := Dnrm2([]float64{1e200, 1e200}); math.IsInf(got, 0) {
		t.Fatal("Dnrm2 overflowed")
	}
	// Underflow safety.
	got := Dnrm2([]float64{1e-200, 1e-200})
	want := 1e-200 * math.Sqrt2
	if math.Abs(got-want)/want > 1e-12 {
		t.Fatalf("Dnrm2 underflow: got %g want %g", got, want)
	}
	if Dnrm2(nil) != 0 {
		t.Fatal("empty Dnrm2 should be 0")
	}
}

func TestDgemvAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, tc := range []struct{ m, n int }{{1, 1}, {3, 5}, {5, 3}, {61, 61}, {7, 1}, {1, 9}} {
		for _, trans := range []bool{false, true} {
			a := randMat(rng, tc.m, tc.n)
			xn, yn := tc.n, tc.m
			if trans {
				xn, yn = tc.m, tc.n
			}
			x := randVec(rng, xn)
			y0 := randVec(rng, yn)
			alpha, beta := rng.NormFloat64(), rng.NormFloat64()

			got := mat.VecClone(y0)
			Dgemv(trans, alpha, a, x, beta, got)
			want := mat.VecClone(y0)
			NaiveGemv(trans, alpha, a, x, beta, want)
			if !mat.VecEqualApprox(got, want, 1e-10) {
				t.Fatalf("Dgemv %d×%d trans=%v mismatch", tc.m, tc.n, trans)
			}
		}
	}
}

func TestDgemvBetaZeroIgnoresNaN(t *testing.T) {
	a := mat.Identity(2)
	y := []float64{math.NaN(), math.NaN()}
	Dgemv(false, 1, a, []float64{1, 2}, 0, y)
	if !mat.VecEqualApprox(y, []float64{1, 2}, 0) {
		t.Fatalf("beta=0 must overwrite NaNs: %v", y)
	}
}

func TestDsymvAgainstDgemv(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{1, 2, 5, 13, 61} {
		a := randMat(rng, n, n)
		a.Symmetrize()
		x := randVec(rng, n)
		y0 := randVec(rng, n)
		alpha, beta := rng.NormFloat64(), rng.NormFloat64()

		got := mat.VecClone(y0)
		Dsymv(alpha, a, x, beta, got)
		want := mat.VecClone(y0)
		Dgemv(false, alpha, a, x, beta, want)
		if !mat.VecEqualApprox(got, want, 1e-10) {
			t.Fatalf("Dsymv n=%d mismatch", n)
		}
	}
}

// Dsymv must only read the upper triangle: poison the strict lower
// triangle and verify the result is unchanged.
func TestDsymvReadsUpperTriangleOnly(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 8
	a := randMat(rng, n, n)
	a.Symmetrize()
	x := randVec(rng, n)
	want := make([]float64, n)
	Dsymv(1, a, x, 0, want)

	for i := 0; i < n; i++ {
		for j := 0; j < i; j++ {
			a.Set(i, j, math.NaN())
		}
	}
	got := make([]float64, n)
	Dsymv(1, a, x, 0, got)
	if !mat.VecEqualApprox(got, want, 0) {
		t.Fatal("Dsymv read the lower triangle")
	}
}

func TestDgemmAgainstNaiveAllTransposes(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	shapes := []struct{ m, k, n int }{
		{1, 1, 1}, {2, 3, 4}, {5, 5, 5}, {61, 61, 61},
		{7, 13, 3}, {4, 1, 9}, {3, 17, 2}, {8, 8, 1},
		// Sizes straddling block boundaries.
		{rowsMR + 1, blockK + 3, 5}, {9, 300, 10},
	}
	for _, sh := range shapes {
		for _, ta := range []bool{false, true} {
			for _, tb := range []bool{false, true} {
				var a, b *mat.Matrix
				if ta {
					a = randMat(rng, sh.k, sh.m)
				} else {
					a = randMat(rng, sh.m, sh.k)
				}
				if tb {
					b = randMat(rng, sh.n, sh.k)
				} else {
					b = randMat(rng, sh.k, sh.n)
				}
				c0 := randMat(rng, sh.m, sh.n)
				alpha, beta := rng.NormFloat64(), rng.NormFloat64()

				got := c0.Clone()
				Dgemm(ta, tb, alpha, a, b, beta, got)
				want := c0.Clone()
				NaiveGemm(ta, tb, alpha, a, b, beta, want)
				if !got.EqualApprox(want, 1e-9) {
					t.Fatalf("Dgemm %v ta=%v tb=%v mismatch", sh, ta, tb)
				}
			}
		}
	}
}

func TestDgemmBetaZeroOverwrites(t *testing.T) {
	a := mat.Identity(2)
	c := mat.NewFromSlice(2, 2, []float64{math.NaN(), math.NaN(), math.NaN(), math.NaN()})
	Dgemm(false, false, 1, a, a, 0, c)
	if !c.EqualApprox(mat.Identity(2), 0) {
		t.Fatalf("beta=0 must overwrite NaNs: %v", c)
	}
}

func TestDgemmDimensionPanics(t *testing.T) {
	a := mat.New(2, 3)
	b := mat.New(4, 2) // inner mismatch
	c := mat.New(2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Dgemm(false, false, 1, a, b, 0, c)
}

func TestDsyrkAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, sh := range []struct{ n, k int }{{1, 1}, {3, 5}, {61, 61}, {10, 2}, {2, 10}} {
		a := randMat(rng, sh.n, sh.k)
		c0 := randMat(rng, sh.n, sh.n)
		c0.Symmetrize()
		alpha, beta := rng.NormFloat64(), rng.NormFloat64()

		got := c0.Clone()
		Dsyrk(false, alpha, a, beta, got)
		want := c0.Clone()
		NaiveSyrk(alpha, a, beta, want)
		if !got.EqualApprox(want, 1e-9) {
			t.Fatalf("Dsyrk n=%d k=%d mismatch", sh.n, sh.k)
		}
		if !got.IsSymmetric(0) {
			t.Fatal("Dsyrk result not exactly symmetric after mirroring")
		}
	}
}

func TestDsyrkTrans(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a := randMat(rng, 7, 4) // Aᵀ·A is 4×4
	c := mat.New(4, 4)
	Dsyrk(true, 1, a, 0, c)
	want := mat.New(4, 4)
	NaiveGemm(true, false, 1, a, a, 0, want)
	if !c.EqualApprox(want, 1e-10) {
		t.Fatal("Dsyrk(T) mismatch")
	}
}

// Property: Dgemm is linear in alpha.
func TestDgemmAlphaLinearity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(12)
		a, b := randMat(rng, n, n), randMat(rng, n, n)
		alpha := rng.NormFloat64()

		c1 := mat.New(n, n)
		Dgemm(false, false, alpha, a, b, 0, c1)
		c2 := mat.New(n, n)
		Dgemm(false, false, 1, a, b, 0, c2)
		for i := range c2.Data {
			c2.Data[i] *= alpha
		}
		return c1.EqualApprox(c2, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: (A·B)ᵀ == Bᵀ·Aᵀ through the transpose kernels.
func TestDgemmTransposeIdentity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, k, n := 1+rng.Intn(9), 1+rng.Intn(9), 1+rng.Intn(9)
		a, b := randMat(rng, m, k), randMat(rng, k, n)

		ab := mat.New(m, n)
		Dgemm(false, false, 1, a, b, 0, ab)

		btat := mat.New(n, m)
		Dgemm(true, true, 1, b, a, 0, btat)
		return ab.Transpose().EqualApprox(btat, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
