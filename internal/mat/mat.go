// Package mat provides the dense matrix and vector types used
// throughout the SlimCodeML reproduction.
//
// Matrices are stored in row-major order in a single contiguous
// []float64, the natural layout for C-family code and the layout the
// paper's "rules of thumb" call out explicitly ("Row major order
// (e.g., C) ... have to be respected to increase performance").
// All higher-level kernels in internal/blas and internal/lapack
// operate on this representation.
package mat

import (
	"fmt"
	"math"
	"strings"
)

// Matrix is a dense, row-major matrix. Element (i, j) lives at
// Data[i*Stride+j]. For matrices created by this package Stride ==
// Cols; views created by SubMatrix may have a larger stride.
type Matrix struct {
	Rows, Cols int
	Stride     int
	Data       []float64
}

// New returns a zeroed r×c matrix.
func New(r, c int) *Matrix {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("mat: negative dimension %d×%d", r, c))
	}
	return &Matrix{Rows: r, Cols: c, Stride: c, Data: make([]float64, r*c)}
}

// NewFromSlice wraps data (row-major, length r*c) in a Matrix without
// copying. The caller must not use data afterwards except through the
// returned matrix.
func NewFromSlice(r, c int, data []float64) *Matrix {
	if len(data) != r*c {
		panic(fmt.Sprintf("mat: data length %d does not match %d×%d", len(data), r, c))
	}
	return &Matrix{Rows: r, Cols: c, Stride: c, Data: data}
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Matrix {
	m := New(n, n)
	for i := 0; i < n; i++ {
		m.Data[i*m.Stride+i] = 1
	}
	return m
}

// Diag returns a square matrix with d on the diagonal.
func Diag(d []float64) *Matrix {
	n := len(d)
	m := New(n, n)
	for i, v := range d {
		m.Data[i*m.Stride+i] = v
	}
	return m
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 {
	if i < 0 || i >= m.Rows || j < 0 || j >= m.Cols {
		panic(fmt.Sprintf("mat: index (%d,%d) out of range %d×%d", i, j, m.Rows, m.Cols))
	}
	return m.Data[i*m.Stride+j]
}

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) {
	if i < 0 || i >= m.Rows || j < 0 || j >= m.Cols {
		panic(fmt.Sprintf("mat: index (%d,%d) out of range %d×%d", i, j, m.Rows, m.Cols))
	}
	m.Data[i*m.Stride+j] = v
}

// Row returns a slice aliasing row i.
func (m *Matrix) Row(i int) []float64 {
	if i < 0 || i >= m.Rows {
		panic(rowRangeError{i, m.Rows})
	}
	return m.Data[i*m.Stride : i*m.Stride+m.Cols]
}

// rowRangeError is Row's panic value. It formats its message only when
// printed: a fmt.Sprintf call inside Row would cost more than the
// compiler's inlining budget, and Row sits in the innermost loops of
// the BLAS and the likelihood engine.
type rowRangeError struct{ i, rows int }

func (e rowRangeError) Error() string {
	return fmt.Sprintf("mat: row %d out of range %d", e.i, e.rows)
}

// Clone returns a deep copy with a compact stride.
func (m *Matrix) Clone() *Matrix {
	out := New(m.Rows, m.Cols)
	for i := 0; i < m.Rows; i++ {
		copy(out.Row(i), m.Row(i))
	}
	return out
}

// CopyFrom copies src into m. Dimensions must match.
func (m *Matrix) CopyFrom(src *Matrix) {
	if m.Rows != src.Rows || m.Cols != src.Cols {
		panic(fmt.Sprintf("mat: copy %d×%d into %d×%d", src.Rows, src.Cols, m.Rows, m.Cols))
	}
	for i := 0; i < m.Rows; i++ {
		copy(m.Row(i), src.Row(i))
	}
}

// Zero sets every element to 0.
func (m *Matrix) Zero() {
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j := range row {
			row[j] = 0
		}
	}
}

// Transpose returns a newly allocated transpose of m.
func (m *Matrix) Transpose() *Matrix {
	out := New(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			out.Data[j*out.Stride+i] = v
		}
	}
	return out
}

// SubMatrix returns a view of the r×c block whose top-left corner is
// (i, j). The view shares storage with m.
func (m *Matrix) SubMatrix(i, j, r, c int) *Matrix {
	if i < 0 || j < 0 || r < 0 || c < 0 || i+r > m.Rows || j+c > m.Cols {
		panic(fmt.Sprintf("mat: submatrix (%d,%d)+%d×%d out of range %d×%d", i, j, r, c, m.Rows, m.Cols))
	}
	return &Matrix{
		Rows:   r,
		Cols:   c,
		Stride: m.Stride,
		Data:   m.Data[i*m.Stride+j:],
	}
}

// ScaleRows multiplies row i of m by d[i] in place (D·M with diagonal D).
func (m *Matrix) ScaleRows(d []float64) {
	if len(d) != m.Rows {
		panic(fmt.Sprintf("mat: ScaleRows with %d factors on %d rows", len(d), m.Rows))
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		f := d[i]
		for j := range row {
			row[j] *= f
		}
	}
}

// ScaleCols multiplies column j of m by d[j] in place (M·D with diagonal D).
func (m *Matrix) ScaleCols(d []float64) {
	if len(d) != m.Cols {
		panic(fmt.Sprintf("mat: ScaleCols with %d factors on %d cols", len(d), m.Cols))
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j := range row {
			row[j] *= d[j]
		}
	}
}

// MaxAbs returns the largest absolute element value.
func (m *Matrix) MaxAbs() float64 {
	max := 0.0
	for i := 0; i < m.Rows; i++ {
		for _, v := range m.Row(i) {
			if a := math.Abs(v); a > max {
				max = a
			}
		}
	}
	return max
}

// FrobeniusNorm returns sqrt(Σ m_ij²).
func (m *Matrix) FrobeniusNorm() float64 {
	// Scaled accumulation to avoid overflow, in the style of dnrm2.
	scale, ssq := 0.0, 1.0
	for i := 0; i < m.Rows; i++ {
		for _, v := range m.Row(i) {
			if v == 0 {
				continue
			}
			a := math.Abs(v)
			if scale < a {
				ssq = 1 + ssq*(scale/a)*(scale/a)
				scale = a
			} else {
				ssq += (a / scale) * (a / scale)
			}
		}
	}
	return scale * math.Sqrt(ssq)
}

// EqualApprox reports whether m and b agree element-wise within tol.
func (m *Matrix) EqualApprox(b *Matrix, tol float64) bool {
	if m.Rows != b.Rows || m.Cols != b.Cols {
		return false
	}
	for i := 0; i < m.Rows; i++ {
		ra, rb := m.Row(i), b.Row(i)
		for j := range ra {
			if math.Abs(ra[j]-rb[j]) > tol {
				return false
			}
		}
	}
	return true
}

// IsSymmetric reports whether m is square and symmetric within tol.
func (m *Matrix) IsSymmetric(tol float64) bool {
	if m.Rows != m.Cols {
		return false
	}
	for i := 0; i < m.Rows; i++ {
		for j := i + 1; j < m.Cols; j++ {
			if math.Abs(m.At(i, j)-m.At(j, i)) > tol {
				return false
			}
		}
	}
	return true
}

// Symmetrize replaces m with (m + mᵀ)/2. m must be square.
func (m *Matrix) Symmetrize() {
	if m.Rows != m.Cols {
		panic("mat: Symmetrize on non-square matrix")
	}
	for i := 0; i < m.Rows; i++ {
		for j := i + 1; j < m.Cols; j++ {
			v := 0.5 * (m.At(i, j) + m.At(j, i))
			m.Set(i, j, v)
			m.Set(j, i, v)
		}
	}
}

// String renders the matrix for debugging; large matrices are elided.
func (m *Matrix) String() string {
	const maxShow = 8
	var b strings.Builder
	fmt.Fprintf(&b, "%d×%d\n", m.Rows, m.Cols)
	rs := m.Rows
	if rs > maxShow {
		rs = maxShow
	}
	cs := m.Cols
	if cs > maxShow {
		cs = maxShow
	}
	for i := 0; i < rs; i++ {
		for j := 0; j < cs; j++ {
			fmt.Fprintf(&b, "% 12.6g", m.At(i, j))
		}
		if cs < m.Cols {
			b.WriteString(" ...")
		}
		b.WriteByte('\n')
	}
	if rs < m.Rows {
		b.WriteString("...\n")
	}
	return b.String()
}
