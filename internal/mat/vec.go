package mat

import (
	"fmt"
	"math"
)

// Vector utilities. Vectors are plain []float64 throughout the code
// base; this file collects the small helpers shared by several
// packages so they are written (and tested) once.

// VecClone returns a copy of v.
func VecClone(v []float64) []float64 {
	out := make([]float64, len(v))
	copy(out, v)
	return out
}

// VecSum returns Σ v_i.
func VecSum(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s
}

// VecMax returns the maximum element of v; -Inf for an empty vector.
func VecMax(v []float64) float64 {
	max := math.Inf(-1)
	for _, x := range v {
		if x > max {
			max = x
		}
	}
	return max
}

// VecMaxAbs returns max |v_i|; 0 for an empty vector.
func VecMaxAbs(v []float64) float64 {
	max := 0.0
	for _, x := range v {
		if a := math.Abs(x); a > max {
			max = a
		}
	}
	return max
}

// VecEqualApprox reports whether a and b agree element-wise within tol.
func VecEqualApprox(a, b []float64, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Abs(a[i]-b[i]) > tol {
			return false
		}
	}
	return true
}

// Normalize scales v in place so Σ v_i = 1 and returns the original
// sum. It panics if the sum is not positive.
func Normalize(v []float64) float64 {
	s := VecSum(v)
	if !(s > 0) {
		panic(fmt.Sprintf("mat: Normalize with non-positive sum %g", s))
	}
	inv := 1 / s
	for i := range v {
		v[i] *= inv
	}
	return s
}
