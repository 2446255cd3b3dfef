package mat

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewZeroed(t *testing.T) {
	m := New(3, 4)
	if m.Rows != 3 || m.Cols != 4 || m.Stride != 4 {
		t.Fatalf("bad shape: %d×%d stride %d", m.Rows, m.Cols, m.Stride)
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			if m.At(i, j) != 0 {
				t.Fatalf("element (%d,%d) not zero", i, j)
			}
		}
	}
}

func TestNewNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for negative dimensions")
		}
	}()
	New(-1, 2)
}

func TestNewFromSlice(t *testing.T) {
	d := []float64{1, 2, 3, 4, 5, 6}
	m := NewFromSlice(2, 3, d)
	if m.At(0, 0) != 1 || m.At(0, 2) != 3 || m.At(1, 0) != 4 || m.At(1, 2) != 6 {
		t.Fatalf("wrong layout: %v", m)
	}
	// The matrix aliases the slice.
	d[0] = 99
	if m.At(0, 0) != 99 {
		t.Fatal("NewFromSlice should alias, not copy")
	}
}

func TestNewFromSliceBadLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for bad data length")
		}
	}()
	NewFromSlice(2, 3, []float64{1, 2})
}

func TestIdentity(t *testing.T) {
	m := Identity(4)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if m.At(i, j) != want {
				t.Fatalf("I(%d,%d) = %g", i, j, m.At(i, j))
			}
		}
	}
}

func TestDiag(t *testing.T) {
	m := Diag([]float64{2, 3, 5})
	if m.At(0, 0) != 2 || m.At(1, 1) != 3 || m.At(2, 2) != 5 {
		t.Fatal("diagonal wrong")
	}
	if m.At(0, 1) != 0 || m.At(2, 0) != 0 {
		t.Fatal("off-diagonal not zero")
	}
}

func TestAtSetBounds(t *testing.T) {
	m := New(2, 2)
	for _, f := range []func(){
		func() { m.At(2, 0) },
		func() { m.At(0, -1) },
		func() { m.Set(-1, 0, 1) },
		func() { m.Set(0, 2, 1) },
		func() { m.Row(2) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected out-of-range panic")
				}
			}()
			f()
		}()
	}
}

// An out-of-range Row panics on either side of the range with an error
// whose text names the row and the row count.
func TestRowOutOfRangeMessage(t *testing.T) {
	m := New(3, 2)
	for _, tc := range []struct {
		i    int
		want string
	}{
		{-1, "mat: row -1 out of range 3"},
		{3, "mat: row 3 out of range 3"},
	} {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("Row(%d) did not panic", tc.i)
				}
				if _, ok := r.(error); !ok {
					t.Fatalf("Row(%d) panicked with %T, want an error", tc.i, r)
				}
				if got := fmt.Sprint(r); got != tc.want {
					t.Fatalf("Row(%d) panic = %q, want %q", tc.i, got, tc.want)
				}
			}()
			m.Row(tc.i)
		}()
	}
}

func TestCloneIndependence(t *testing.T) {
	m := NewFromSlice(2, 2, []float64{1, 2, 3, 4})
	c := m.Clone()
	c.Set(0, 0, 42)
	if m.At(0, 0) != 1 {
		t.Fatal("Clone shares storage")
	}
}

func TestTranspose(t *testing.T) {
	m := NewFromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6})
	tr := m.Transpose()
	if tr.Rows != 3 || tr.Cols != 2 {
		t.Fatalf("bad transpose shape %d×%d", tr.Rows, tr.Cols)
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			if m.At(i, j) != tr.At(j, i) {
				t.Fatalf("transpose mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func TestTransposeInvolution(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r, c := 1+rng.Intn(8), 1+rng.Intn(8)
		m := New(r, c)
		for i := range m.Data {
			m.Data[i] = rng.NormFloat64()
		}
		return m.Transpose().Transpose().EqualApprox(m, 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSubMatrixView(t *testing.T) {
	m := NewFromSlice(3, 3, []float64{
		1, 2, 3,
		4, 5, 6,
		7, 8, 9,
	})
	s := m.SubMatrix(1, 1, 2, 2)
	if s.At(0, 0) != 5 || s.At(1, 1) != 9 {
		t.Fatalf("wrong view contents: %v", s)
	}
	s.Set(0, 0, -5)
	if m.At(1, 1) != -5 {
		t.Fatal("SubMatrix must share storage")
	}
}

func TestScaleRowsCols(t *testing.T) {
	m := NewFromSlice(2, 2, []float64{1, 2, 3, 4})
	m.ScaleRows([]float64{2, 10})
	want := NewFromSlice(2, 2, []float64{2, 4, 30, 40})
	if !m.EqualApprox(want, 0) {
		t.Fatalf("ScaleRows: got %v", m)
	}
	m = NewFromSlice(2, 2, []float64{1, 2, 3, 4})
	m.ScaleCols([]float64{2, 10})
	want = NewFromSlice(2, 2, []float64{2, 20, 6, 40})
	if !m.EqualApprox(want, 0) {
		t.Fatalf("ScaleCols: got %v", m)
	}
}

// ScaleRows(d) then ScaleCols(e) must equal the explicit product
// D·M·E for diagonal D and E — the operation used to build A from S
// and Π^{1/2}.
func TestScaleMatchesDiagonalProduct(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := 5
	m := New(n, n)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	d := make([]float64, n)
	e := make([]float64, n)
	for i := 0; i < n; i++ {
		d[i] = 1 + rng.Float64()
		e[i] = 1 + rng.Float64()
	}
	got := m.Clone()
	got.ScaleRows(d)
	got.ScaleCols(e)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			want := d[i] * m.At(i, j) * e[j]
			if math.Abs(got.At(i, j)-want) > 1e-14 {
				t.Fatalf("(%d,%d): got %g want %g", i, j, got.At(i, j), want)
			}
		}
	}
}

func TestMaxAbsAndFrobenius(t *testing.T) {
	m := NewFromSlice(2, 2, []float64{3, -4, 0, 0})
	if m.MaxAbs() != 4 {
		t.Fatalf("MaxAbs = %g", m.MaxAbs())
	}
	if math.Abs(m.FrobeniusNorm()-5) > 1e-14 {
		t.Fatalf("Frobenius = %g, want 5", m.FrobeniusNorm())
	}
}

func TestFrobeniusExtremeValues(t *testing.T) {
	// Values near overflow must not overflow thanks to scaled accumulation.
	m := NewFromSlice(1, 2, []float64{1e300, 1e300})
	got := m.FrobeniusNorm()
	want := 1e300 * math.Sqrt2
	if math.Abs(got-want)/want > 1e-14 {
		t.Fatalf("Frobenius overflow handling: got %g want %g", got, want)
	}
}

func TestIsSymmetricAndSymmetrize(t *testing.T) {
	m := NewFromSlice(2, 2, []float64{1, 2, 2.0000001, 1})
	if m.IsSymmetric(1e-9) {
		t.Fatal("should not be symmetric at tight tol")
	}
	if !m.IsSymmetric(1e-6) {
		t.Fatal("should be symmetric at loose tol")
	}
	m.Symmetrize()
	if !m.IsSymmetric(0) {
		t.Fatal("Symmetrize failed")
	}
	if math.Abs(m.At(0, 1)-2.00000005) > 1e-12 {
		t.Fatalf("Symmetrize average wrong: %g", m.At(0, 1))
	}
}

func TestEqualApproxShapes(t *testing.T) {
	if New(2, 3).EqualApprox(New(3, 2), 1) {
		t.Fatal("different shapes must not be equal")
	}
}

func TestCopyFrom(t *testing.T) {
	src := NewFromSlice(2, 2, []float64{1, 2, 3, 4})
	dst := New(2, 2)
	dst.CopyFrom(src)
	if !dst.EqualApprox(src, 0) {
		t.Fatal("CopyFrom mismatch")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on shape mismatch")
		}
	}()
	New(2, 3).CopyFrom(src)
}

func TestZero(t *testing.T) {
	m := NewFromSlice(2, 2, []float64{1, 2, 3, 4})
	m.Zero()
	if m.MaxAbs() != 0 {
		t.Fatal("Zero left nonzeros")
	}
}

func TestStringDoesNotPanic(t *testing.T) {
	big := New(20, 20)
	if s := big.String(); s == "" {
		t.Fatal("empty String()")
	}
	small := New(2, 2)
	if s := small.String(); s == "" {
		t.Fatal("empty String()")
	}
}
