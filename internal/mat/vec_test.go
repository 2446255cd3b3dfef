package mat

import (
	"math"
	"testing"
	"testing/quick"
)

func TestVecClone(t *testing.T) {
	v := []float64{1, 2, 3}
	c := VecClone(v)
	c[0] = 9
	if v[0] != 1 {
		t.Fatal("VecClone aliases")
	}
}

func TestVecSumMax(t *testing.T) {
	v := []float64{2, -4, 6}
	if VecSum(v) != 4 {
		t.Fatalf("VecSum = %g", VecSum(v))
	}
	if VecMax(v) != 6 {
		t.Fatalf("VecMax = %g", VecMax(v))
	}
	if VecMaxAbs([]float64{-7, 3}) != 7 {
		t.Fatal("VecMaxAbs wrong")
	}
	if !math.IsInf(VecMax(nil), -1) {
		t.Fatal("VecMax of empty should be -Inf")
	}
	if VecMaxAbs(nil) != 0 {
		t.Fatal("VecMaxAbs of empty should be 0")
	}
}

func TestNormalize(t *testing.T) {
	v := []float64{1, 3}
	s := Normalize(v)
	if s != 4 {
		t.Fatalf("returned sum %g", s)
	}
	if !VecEqualApprox(v, []float64{0.25, 0.75}, 1e-15) {
		t.Fatalf("normalized: %v", v)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for zero-sum")
		}
	}()
	Normalize([]float64{0, 0})
}

// Property: Normalize always produces a probability vector for
// positive inputs.
func TestNormalizeProperty(t *testing.T) {
	f := func(raw []float64) bool {
		v := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e100 {
				v = append(v, math.Abs(x)+1e-3)
			}
		}
		if len(v) == 0 {
			return true
		}
		Normalize(v)
		return math.Abs(VecSum(v)-1) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestVecEqualApproxLengths(t *testing.T) {
	if VecEqualApprox([]float64{1}, []float64{1, 2}, 10) {
		t.Fatal("different lengths must not compare equal")
	}
}
