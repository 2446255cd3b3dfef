package blas

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/mat"
)

// Both kernels' DgemmNTRows over the full range must agree with
// Dgemm's NT case to rounding, across shapes that straddle the tiling
// boundaries.
func TestDgemmNTRowsAgainstDgemm(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	shapes := []struct{ m, n, k int }{
		{1, 1, 1}, {2, 2, 2}, {3, 5, 4}, {7, 61, 61}, {64, 61, 61}, {65, 62, 61},
	}
	for _, s := range shapes {
		a := randMat(rng, s.m, s.k)
		b := randMat(rng, s.n, s.k)
		want := mat.New(s.m, s.n)
		Dgemm(false, true, 1.3, a, b, 0, want)
		for _, kr := range conformKernels() {
			got := mat.New(s.m, s.n)
			kr.DgemmNTRows(1.3, a, b, 0, got, 0, s.m)
			for i := 0; i < s.m; i++ {
				for j := 0; j < s.n; j++ {
					if math.Abs(got.At(i, j)-want.At(i, j)) > 1e-10*(1+math.Abs(want.At(i, j))) {
						t.Fatalf("kernel %s shape %v at (%d,%d): %g vs %g", kr.Name(), s, i, j, got.At(i, j), want.At(i, j))
					}
				}
			}
		}
	}
}

// The determinism contract: computing the rows in any partition of
// sub-ranges through DgemmNTRowsPacked must be bit-identical to one
// full-range call, whichever kernel packed B.
func TestDgemmNTRowsPartitionBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	const m, n, k = 37, 61, 61
	a := randMat(rng, m, k)
	b := randMat(rng, n, k)
	for _, kr := range conformKernels() {
		var pb PackedB
		kr.PackB(b, &pb)
		want := mat.New(m, n)
		DgemmNTRowsPacked(1, a, &pb, 0, want, 0, m)

		for _, block := range []int{1, 2, 5, 8, 13} {
			got := mat.New(m, n)
			for lo := 0; lo < m; lo += block {
				hi := lo + block
				if hi > m {
					hi = m
				}
				DgemmNTRowsPacked(1, a, &pb, 0, got, lo, hi)
			}
			for i := range want.Data {
				if got.Data[i] != want.Data[i] {
					t.Fatalf("kernel %s block=%d: element %d differs bitwise: %0.17g vs %0.17g",
						kr.Name(), block, i, got.Data[i], want.Data[i])
				}
			}
		}
	}
}

// Beta semantics through DgemmNTRowsPacked: beta=0 must overwrite
// (ignoring NaN), beta=1 must accumulate, and out-of-range rows must
// be left untouched.
func TestDgemmNTRowsBetaAndRange(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const m, n, k = 6, 4, 3
	a := randMat(rng, m, k)
	b := randMat(rng, n, k)
	for _, kr := range conformKernels() {
		var pb PackedB
		kr.PackB(b, &pb)

		c := mat.New(m, n)
		for i := range c.Data {
			c.Data[i] = math.NaN()
		}
		DgemmNTRowsPacked(1, a, &pb, 0, c, 2, 4)
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				inRange := i >= 2 && i < 4
				if inRange && math.IsNaN(c.At(i, j)) {
					t.Fatalf("kernel %s: beta=0 kept NaN at (%d,%d)", kr.Name(), i, j)
				}
				if !inRange && !math.IsNaN(c.At(i, j)) {
					t.Fatalf("kernel %s: row %d outside range was written", kr.Name(), i)
				}
			}
		}

		// beta=1 accumulates: two identical updates double the result.
		c1 := mat.New(m, n)
		DgemmNTRowsPacked(1, a, &pb, 0, c1, 0, m)
		c2 := mat.New(m, n)
		DgemmNTRowsPacked(1, a, &pb, 0, c2, 0, m)
		DgemmNTRowsPacked(1, a, &pb, 1, c2, 0, m)
		for i := range c1.Data {
			if math.Abs(c2.Data[i]-2*c1.Data[i]) > 1e-12*(1+math.Abs(c1.Data[i])) {
				t.Fatalf("kernel %s: beta=1 did not accumulate at %d", kr.Name(), i)
			}
		}
	}
}

// DgemmNTRowsPacked checks every shape against the packed operand's
// recorded dimensions before dispatching to the kernel that packed it.
func TestDgemmNTRowsPanics(t *testing.T) {
	a := mat.New(2, 3)
	c := mat.New(2, 4)
	for _, kr := range conformKernels() {
		var pb, narrow PackedB
		kr.PackB(mat.New(4, 3), &pb)
		kr.PackB(mat.New(4, 2), &narrow)
		for _, bad := range []func(){
			func() { DgemmNTRowsPacked(1, a, &narrow, 0, c, 0, 2) },         // inner mismatch
			func() { DgemmNTRowsPacked(1, a, &pb, 0, mat.New(3, 4), 0, 2) }, // output shape
			func() { DgemmNTRowsPacked(1, a, &pb, 0, c, 0, 3) },             // range out of bounds
			func() { DgemmNTRowsPacked(1, a, &pb, 0, c, -1, 2) },
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Fatalf("kernel %s: expected panic", kr.Name())
					}
				}()
				bad()
			}()
		}
	}
}
