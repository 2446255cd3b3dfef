// Package lapack implements the dense symmetric eigensolver that the
// SlimCodeML transition-probability computation requires (the paper
// calls LAPACK dsyevr for this step).
//
// The driver Dsyev follows the classical two-phase scheme:
//
//  1. Tred2 — reduction of the symmetric matrix to tridiagonal form by
//     Householder reflections, accumulating the orthogonal transform
//     (the dsytrd step of the paper's §III-A step 2);
//  2. Tql2 — the implicit-shift QL iteration on the tridiagonal
//     matrix, applying the rotations to the accumulated transform so
//     the eigenvectors of the original matrix fall out (the QL/QR
//     branch of dsyevr; MRRR is an internal LAPACK alternative with
//     the same contract).
//
// Both phases walk row-major memory (internal/mat) by rows. Tred2
// indexes z.Data through its stride, and where the textbook code sums
// down a column it sums row by row instead, with the same terms in the
// same order. Each QL rotation combines two eigenvectors, so Tql2
// transposes z in place, rotates two contiguous rows of zᵀ in EISPACK
// order and transposes back on return; Dsyev then sorts the columns in
// place. Every arithmetic expression is EISPACK's, so on amd64 the
// output bits equal those of the textbook code written through
// mat.At/Set, which the tests keep as an oracle. As the engine's
// pinned-bytes test notes, arm64, ppc64le and s390x fuse x*y+z into
// one FMA instruction, so their bits differ from amd64's.
//
// A cyclic Jacobi solver is also provided; it is slower but has
// independently-verifiable convergence behaviour and is used by the
// tests to cross-validate the QL path.
package lapack

import (
	"errors"
	"math"
	"sort"

	"repro/internal/mat"
)

// ErrNoConvergence is returned when the QL or Jacobi iteration fails
// to converge within its iteration budget. For the well-conditioned
// symmetric matrices arising from reversible codon models this never
// happens in practice.
var ErrNoConvergence = errors.New("lapack: eigenvalue iteration did not converge")

// Eigen holds a symmetric eigendecomposition A = X·diag(Values)·Xᵀ.
// Column j of Vectors is the eigenvector for Values[j]; Values are in
// ascending order and Vectors is orthonormal.
type Eigen struct {
	Values  []float64
	Vectors *mat.Matrix
}

// Dsyev computes the full eigendecomposition of the symmetric matrix
// a. Only the values of a are read (a is not modified); symmetry is
// assumed and not checked — use mat.Matrix.IsSymmetric beforehand if
// the input is suspect.
func Dsyev(a *mat.Matrix) (*Eigen, error) {
	return DsyevInPlace(a.Clone())
}

// DsyevInPlace is Dsyev for a caller that owns z and no longer needs
// it: z is overwritten, and on success it is the returned Vectors.
// The result is bit-identical to Dsyev's.
func DsyevInPlace(z *mat.Matrix) (*Eigen, error) {
	n := z.Rows
	if z.Cols != n {
		panic("lapack: Dsyev requires a square matrix")
	}
	d := make([]float64, n)
	e := make([]float64, n)
	Tred2(z, d, e)
	if err := Tql2(d, e, z); err != nil {
		return nil, err
	}
	sortEigen(d, z)
	return &Eigen{Values: d, Vectors: z}, nil
}

// Tred2 reduces the symmetric matrix held in z to tridiagonal form
// using Householder reflections. On return d holds the diagonal,
// e[1..n-1] the sub-diagonal (e[0] is zero), and z is overwritten with
// the accumulated orthogonal matrix Q such that A = Q·T·Qᵀ.
//
// This is the EISPACK tred2 algorithm, the ancestor of LAPACK dsytrd
// with explicit accumulation (dorgtr).
func Tred2(z *mat.Matrix, d, e []float64) {
	n := z.Rows
	if z.Cols != n || len(d) != n || len(e) != n {
		panic("lapack: Tred2 dimension mismatch")
	}
	if n == 0 {
		return
	}
	zd, st := z.Data, z.Stride

	for i := n - 1; i >= 1; i-- {
		l := i - 1
		zi := zd[i*st : i*st+n]
		h, scale := 0.0, 0.0
		if l > 0 {
			for k := 0; k <= l; k++ {
				scale += math.Abs(zi[k])
			}
			if scale == 0 {
				e[i] = zi[l]
			} else {
				for k := 0; k <= l; k++ {
					v := zi[k] / scale
					zi[k] = v
					h += v * v
				}
				f := zi[l]
				g := math.Sqrt(h)
				if f > 0 {
					g = -g
				}
				e[i] = scale * g
				h -= f * g
				zi[l] = f - g
				// g_j = Σ_{k≤j} z[j][k]·z[i][k] + Σ_{j<k≤l} z[k][j]·z[i][k],
				// summed in k order. Row k starts g_k in e[k] and adds
				// its k-th term to every g_j, j < k, whose first part
				// row j has already summed.
				for k := 0; k <= l; k++ {
					zk := zd[k*st : k*st+n]
					zk[i] = zi[k] / h
					g = 0
					for m := 0; m <= k; m++ {
						g += zk[m] * zi[m]
					}
					e[k] = g
					zik := zi[k]
					for j := 0; j < k; j++ {
						e[j] += zk[j] * zik
					}
				}
				f = 0
				for j := 0; j <= l; j++ {
					e[j] = e[j] / h
					f += e[j] * zi[j]
				}
				hh := f / (h + h)
				for j := 0; j <= l; j++ {
					f = zi[j]
					g = e[j] - hh*f
					e[j] = g
					zj := zd[j*st : j*st+j+1]
					for k := range zj {
						zj[k] -= f*e[k] + g*zi[k]
					}
				}
			}
		} else {
			e[i] = zi[l]
		}
		d[i] = h
	}
	d[0] = 0
	e[0] = 0

	// Accumulate the transformations: g_j = Σ_k z[i][k]·z[k][j] for
	// every column j < i at once, summed row by row in k order, then
	// z[k][j] -= g_j·z[k][i].
	g := make([]float64, n)
	for i := 0; i < n; i++ {
		l := i - 1
		zi := zd[i*st : i*st+n]
		if d[i] != 0 {
			gi := g[:i]
			for j := range gi {
				gi[j] = 0
			}
			for k := 0; k <= l; k++ {
				zik := zi[k]
				zk := zd[k*st : k*st+i]
				for j, v := range zk {
					gi[j] += zik * v
				}
			}
			for k := 0; k <= l; k++ {
				zk := zd[k*st : k*st+i+1]
				zki := zk[i]
				for j, gj := range gi {
					zk[j] -= gj * zki
				}
			}
		}
		d[i] = zi[i]
		zi[i] = 1
		for j := 0; j <= l; j++ {
			zd[j*st+i] = 0
			zi[j] = 0
		}
	}
}

// Tql2 diagonalizes the symmetric tridiagonal matrix given by diagonal
// d and sub-diagonal e (e[0] unused) using the implicit-shift QL
// algorithm, accumulating the rotations into z. On return d holds the
// eigenvalues (unsorted) and the columns of z the eigenvectors.
//
// This is the EISPACK tql2 algorithm, equivalent to LAPACK dsteqr with
// compz='V'.
func Tql2(d, e []float64, z *mat.Matrix) error {
	n := len(d)
	if len(e) != n || z.Rows != n || z.Cols != n {
		panic("lapack: Tql2 dimension mismatch")
	}
	if n == 0 {
		return nil
	}
	// Each rotation combines two eigenvectors. Run on zᵀ, they are two
	// contiguous rows rather than two columns a full row apart.
	transposeSquare(z)
	defer transposeSquare(z)

	const maxIter = 50
	zd, st := z.Data, z.Stride

	for i := 1; i < n; i++ {
		e[i-1] = e[i]
	}
	e[n-1] = 0

	for l := 0; l < n; l++ {
		iter := 0
		for {
			// Find a small sub-diagonal element to split the matrix.
			m := l
			for ; m < n-1; m++ {
				dd := math.Abs(d[m]) + math.Abs(d[m+1])
				if math.Abs(e[m]) <= machEps*dd {
					break
				}
			}
			if m == l {
				break
			}
			iter++
			if iter > maxIter {
				return ErrNoConvergence
			}
			// Wilkinson-style shift from the 2×2 at the top.
			g := (d[l+1] - d[l]) / (2 * e[l])
			r := math.Hypot(g, 1)
			g = d[m] - d[l] + e[l]/(g+math.Copysign(r, g))
			s, c := 1.0, 1.0
			p := 0.0
			underflow := false
			for i := m - 1; i >= l; i-- {
				f := s * e[i]
				b := c * e[i]
				r = math.Hypot(f, g)
				e[i+1] = r
				if r == 0 {
					// Recover from underflow by deflating.
					d[i+1] -= p
					e[m] = 0
					underflow = true
					break
				}
				s = f / r
				c = g / r
				g = d[i+1] - p
				r = (d[i]-g)*s + 2*c*b
				p = s * r
				d[i+1] = g + p
				g = c*r - b
				// Apply the rotation to eigenvectors i and i+1.
				zi := zd[i*st : i*st+n]
				zi1 := zd[(i+1)*st : (i+1)*st+n]
				zi = zi[:len(zi1)]
				for k, f := range zi1 {
					zi1[k] = s*zi[k] + c*f
					zi[k] = c*zi[k] - s*f
				}
			}
			if underflow {
				continue
			}
			d[l] -= p
			e[l] = g
			e[m] = 0
		}
	}
	return nil
}

// machEps is the double-precision unit roundoff used for the QL
// convergence test.
const machEps = 2.220446049250313e-16

// transposeSquare transposes the square matrix z in place.
func transposeSquare(z *mat.Matrix) {
	zd, st := z.Data, z.Stride
	for i := 1; i < z.Rows; i++ {
		for j := 0; j < i; j++ {
			zd[i*st+j], zd[j*st+i] = zd[j*st+i], zd[i*st+j]
		}
	}
}

// sortEigen sorts eigenvalues ascending and permutes the eigenvector
// columns of z to match, in place. Column c of the result is column
// idx[c] of the input; when idx[c] < c a swap at an earlier position
// has moved it, and following idx until the index reaches c or beyond
// finds where it now is.
func sortEigen(d []float64, z *mat.Matrix) {
	n := len(d)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return d[idx[a]] < d[idx[b]] })

	zd, st := z.Data, z.Stride
	for c, src := range idx {
		for src < c {
			src = idx[src]
		}
		if src == c {
			continue
		}
		d[c], d[src] = d[src], d[c]
		for r := 0; r < n; r++ {
			zd[r*st+c], zd[r*st+src] = zd[r*st+src], zd[r*st+c]
		}
	}
}
