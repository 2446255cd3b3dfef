package blas

import "repro/internal/mat"

// Dgemv computes y ← αAx + βy (trans == false) or y ← αAᵀx + βy
// (trans == true). Dimensions are checked against the operation
// actually performed.
func Dgemv(trans bool, alpha float64, a *mat.Matrix, x []float64, beta float64, y []float64) {
	m, n := a.Rows, a.Cols
	if trans {
		if len(x) != m || len(y) != n {
			panic("blas: Dgemv(T) dimension mismatch")
		}
	} else {
		if len(x) != n || len(y) != m {
			panic("blas: Dgemv(N) dimension mismatch")
		}
	}
	if beta == 0 {
		for i := range y {
			y[i] = 0
		}
	} else if beta != 1 {
		Dscal(beta, y)
	}
	if alpha == 0 {
		return
	}
	if !trans {
		// Row-major, no-transpose: each y[i] is a dot product with a
		// contiguous row — the cache-friendly orientation.
		for i := 0; i < m; i++ {
			y[i] += alpha * Ddot(a.Row(i), x)
		}
		return
	}
	// Transpose: accumulate scaled rows into y (axpy per row), which
	// again touches contiguous memory.
	for i := 0; i < m; i++ {
		Daxpy(alpha*x[i], a.Row(i), y)
	}
}

// Dsymv computes y ← αAx + βy for a symmetric matrix A of which only
// the upper triangle (including the diagonal) is referenced. Reading
// half the matrix halves the memory traffic relative to Dgemv — the
// advantage the paper's Eq. 12 formulation exploits for the
// conditional probability vectors.
func Dsymv(alpha float64, a *mat.Matrix, x []float64, beta float64, y []float64) {
	n := a.Rows
	if a.Cols != n || len(x) != n || len(y) != n {
		panic("blas: Dsymv dimension mismatch")
	}
	if beta == 0 {
		for i := range y {
			y[i] = 0
		}
	} else if beta != 1 {
		Dscal(beta, y)
	}
	if alpha == 0 {
		return
	}
	for i := 0; i < n; i++ {
		row := a.Row(i)
		xi := x[i]
		sum := row[i] * xi
		for j := i + 1; j < n; j++ {
			v := row[j]
			sum += v * x[j]
			y[j] += alpha * v * xi
		}
		y[i] += alpha * sum
	}
}
