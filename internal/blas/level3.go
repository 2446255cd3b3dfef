package blas

import "repro/internal/mat"

// Cache-blocking parameters for the level-3 kernels. They are sized
// for typical L1/L2 caches; correctness never depends on them and the
// tests exercise odd sizes that straddle every block boundary.
const (
	blockK = 256 // depth of the k-panel kept hot in cache
	blockJ = 512 // width of the j-panel (columns of B and C)
	rowsMR = 4   // register tile height for the NN kernel
)

// Dgemm computes C ← α·op(A)·op(B) + βC where op(X) is X or Xᵀ
// according to transA / transB. It is the stand-in for the tuned BLAS
// dgemm the paper links against; the no-transpose and N·Tᵀ cases —
// the two shapes the likelihood computation uses — are cache-blocked
// and register-tiled.
func Dgemm(transA, transB bool, alpha float64, a, b *mat.Matrix, beta float64, c *mat.Matrix) {
	// Effective dimensions of op(A): m×k, op(B): k×n.
	m, k := a.Rows, a.Cols
	if transA {
		m, k = a.Cols, a.Rows
	}
	kb, n := b.Rows, b.Cols
	if transB {
		kb, n = b.Cols, b.Rows
	}
	if k != kb {
		panic("blas: Dgemm inner dimension mismatch")
	}
	if c.Rows != m || c.Cols != n {
		panic("blas: Dgemm output dimension mismatch")
	}

	scaleC(beta, c)
	if alpha == 0 || m == 0 || n == 0 || k == 0 {
		return
	}

	switch {
	case !transA && !transB:
		gemmNN(alpha, a, b, c)
	case !transA && transB:
		// The N·Tᵀ shape runs on the blocked kernel (C is already
		// β-scaled above, so accumulate with β = 1).
		BlockedKernel.DgemmNT(alpha, a, b, 1, c)
	case transA && !transB:
		gemmTN(alpha, a, b, c)
	default:
		gemmTT(alpha, a, b, c)
	}
}

func scaleC(beta float64, c *mat.Matrix) {
	if beta == 1 {
		return
	}
	for i := 0; i < c.Rows; i++ {
		row := c.Row(i)
		if beta == 0 {
			for j := range row {
				row[j] = 0
			}
		} else {
			for j := range row {
				row[j] *= beta
			}
		}
	}
}

// gemmNN: C += α·A·B with blocking over k and j, accumulating rowsMR
// rows of C at a time so the inner loop streams contiguously through
// B and C.
func gemmNN(alpha float64, a, b, c *mat.Matrix) {
	m, k, n := a.Rows, a.Cols, b.Cols
	for kk := 0; kk < k; kk += blockK {
		kEnd := kk + blockK
		if kEnd > k {
			kEnd = k
		}
		for jj := 0; jj < n; jj += blockJ {
			jEnd := jj + blockJ
			if jEnd > n {
				jEnd = n
			}
			i := 0
			for ; i+rowsMR <= m; i += rowsMR {
				a0, a1, a2, a3 := a.Row(i), a.Row(i+1), a.Row(i+2), a.Row(i+3)
				c0, c1, c2, c3 := c.Row(i), c.Row(i+1), c.Row(i+2), c.Row(i+3)
				for p := kk; p < kEnd; p++ {
					brow := b.Row(p)[jj:jEnd]
					v0 := alpha * a0[p]
					v1 := alpha * a1[p]
					v2 := alpha * a2[p]
					v3 := alpha * a3[p]
					cc0 := c0[jj:jEnd]
					cc1 := c1[jj:jEnd]
					cc2 := c2[jj:jEnd]
					cc3 := c3[jj:jEnd]
					for q, bv := range brow {
						cc0[q] += v0 * bv
						cc1[q] += v1 * bv
						cc2[q] += v2 * bv
						cc3[q] += v3 * bv
					}
				}
			}
			for ; i < m; i++ {
				arow, crow := a.Row(i), c.Row(i)
				for p := kk; p < kEnd; p++ {
					brow := b.Row(p)[jj:jEnd]
					v := alpha * arow[p]
					cc := crow[jj:jEnd]
					for q, bv := range brow {
						cc[q] += v * bv
					}
				}
			}
		}
	}
}

// gemmTN: C += α·Aᵀ·B. Processed as rank-1 updates streaming through
// rows of A and B.
func gemmTN(alpha float64, a, b, c *mat.Matrix) {
	k := a.Rows
	for p := 0; p < k; p++ {
		arow, brow := a.Row(p), b.Row(p)
		for i, av := range arow {
			Daxpy(alpha*av, brow, c.Row(i))
		}
	}
}

// gemmTT: C += α·Aᵀ·Bᵀ, i.e. C[i][j] = Σ_p A[p][i]·B[j][p].
func gemmTT(alpha float64, a, b, c *mat.Matrix) {
	m, n, k := a.Cols, b.Rows, a.Rows
	for j := 0; j < n; j++ {
		brow := b.Row(j)
		for p := 0; p < k; p++ {
			arow := a.Row(p)
			v := alpha * brow[p]
			for i := 0; i < m; i++ {
				c.Data[i*c.Stride+j] += v * arow[i]
			}
		}
	}
}

// Dsyrk computes the symmetric rank-k update C ← α·A·Aᵀ + βC
// (trans == false) or C ← α·Aᵀ·A + βC (trans == true). Only the lower
// triangle is computed — roughly n³ flops for a square A, half of the
// equivalent Dgemm (the paper's Eq. 10 vs Eq. 9 saving) — and the
// result is then mirrored so C is a full symmetric matrix, which is
// what the transition-probability construction consumes.
func Dsyrk(trans bool, alpha float64, a *mat.Matrix, beta float64, c *mat.Matrix) {
	n, k := a.Rows, a.Cols
	if trans {
		n, k = a.Cols, a.Rows
	}
	if c.Rows != n || c.Cols != n {
		panic("blas: Dsyrk output dimension mismatch")
	}
	scaleC(beta, c)
	if alpha != 0 && k != 0 {
		if !trans {
			syrkN(alpha, a, c)
		} else {
			syrkT(alpha, a, c)
		}
	}
	// Mirror the lower triangle into the upper one.
	for i := 0; i < n; i++ {
		for j := 0; j < i; j++ {
			c.Data[j*c.Stride+i] = c.Data[i*c.Stride+j]
		}
	}
}

// syrkN accumulates the lower triangle of α·A·Aᵀ: row-dot-row with
// 2-row tiling.
func syrkN(alpha float64, a, c *mat.Matrix) {
	n := a.Rows
	for i := 0; i < n; i++ {
		arow := a.Row(i)
		crow := c.Row(i)
		j := 0
		for ; j+2 <= i+1; j += 2 {
			b0, b1 := a.Row(j), a.Row(j+1)
			var s0, s1 float64
			for p, av := range arow {
				s0 += av * b0[p]
				s1 += av * b1[p]
			}
			crow[j] += alpha * s0
			crow[j+1] += alpha * s1
		}
		for ; j <= i; j++ {
			crow[j] += alpha * Ddot(arow, a.Row(j))
		}
	}
}

// syrkT accumulates the lower triangle of α·Aᵀ·A as a sum of
// symmetric rank-1 updates from each row of A.
func syrkT(alpha float64, a, c *mat.Matrix) {
	k, n := a.Rows, a.Cols
	for p := 0; p < k; p++ {
		arow := a.Row(p)
		for i := 0; i < n; i++ {
			v := alpha * arow[i]
			if v == 0 {
				continue
			}
			crow := c.Row(i)
			for j := 0; j <= i; j++ {
				crow[j] += v * arow[j]
			}
		}
	}
}
