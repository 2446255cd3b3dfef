// Package blas implements the subset of the Basic Linear Algebra
// Subprograms that SlimCodeML's likelihood computation needs:
// level-1 vector kernels, level-2 matrix-vector kernels (including the
// symmetric dsymv used by the paper's Eq. 12 conditional-vector
// update), and level-3 dgemm / dsyrk (the paper's Eq. 9 vs Eq. 10
// contrast).
//
// The exported kernels are cache-blocked and register-tiled, standing
// in for a tuned BLAS (GotoBLAS2 in the paper). The NT matrix products
// the likelihood computation issues go through a runtime Kernel seam
// (kernel.go): the "blocked" kernel is the tuned one, "naive" is the
// registry's plain-loop reference, and the unregistered
// HandRolledKernel runs the Naive* textbook loops that stand in for
// the hand-rolled C inside original CodeML. Hand-rolled vs tuned
// arithmetic is chosen by kernel, and only by kernel. The Naive*
// functions are also the oracles the tests check every kernel against.
package blas

import "math"

// Ddot returns the dot product xᵀy. The slices must have equal length.
func Ddot(x, y []float64) float64 {
	if len(x) != len(y) {
		panic("blas: Ddot length mismatch")
	}
	var s0, s1, s2, s3 float64
	n := len(x)
	i := 0
	for ; i+4 <= n; i += 4 {
		s0 += x[i] * y[i]
		s1 += x[i+1] * y[i+1]
		s2 += x[i+2] * y[i+2]
		s3 += x[i+3] * y[i+3]
	}
	s := s0 + s1 + s2 + s3
	for ; i < n; i++ {
		s += x[i] * y[i]
	}
	return s
}

// Daxpy computes y ← αx + y.
func Daxpy(alpha float64, x, y []float64) {
	if len(x) != len(y) {
		panic("blas: Daxpy length mismatch")
	}
	if alpha == 0 {
		return
	}
	for i, v := range x {
		y[i] += alpha * v
	}
}

// Dscal computes x ← αx.
func Dscal(alpha float64, x []float64) {
	for i := range x {
		x[i] *= alpha
	}
}

// Dnrm2 returns the Euclidean norm of x using scaled accumulation to
// avoid overflow and underflow, following the reference dnrm2.
func Dnrm2(x []float64) float64 {
	scale, ssq := 0.0, 1.0
	for _, v := range x {
		if v == 0 {
			continue
		}
		a := math.Abs(v)
		if scale < a {
			r := scale / a
			ssq = 1 + ssq*r*r
			scale = a
		} else {
			r := a / scale
			ssq += r * r
		}
	}
	return scale * math.Sqrt(ssq)
}
