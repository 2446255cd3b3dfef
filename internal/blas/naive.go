package blas

import "repro/internal/mat"

// Naive reference routines. These are deliberately unblocked, untiled
// textbook loops that read and write every element through the
// bounds-checked mat accessors. They model the hand-rolled C inside
// original CodeML v4.4c, which the paper replaces with tuned BLAS: the
// baseline engine runs them through HandRolledKernel, so the
// baseline-to-slim runtime contrast includes the tuned-vs-hand-rolled
// component the paper measured. They are also the oracles the tests
// check the optimized routines and every kernel against.

// HandRolledKernel is the NT kernel of original CodeML's hand-rolled
// loops: a whole product is one NaiveGemm (the Eq. 9 P(t) loop) and a
// row range is one NaiveGemv per row (the per-site mat-vec). β is
// applied up front exactly as the naive kernel applies it, so the
// results are the naive kernel's bits at the textbook loops' cost. The
// baseline engine pins it (lik.Config.Kernel). It is not registered,
// so no -kernel flag or KernelEnv value selects it.
var HandRolledKernel Kernel = handRolledKernel{}

type handRolledKernel struct{}

func (handRolledKernel) Name() string { return "hand-rolled" }

func (handRolledKernel) DgemmNT(alpha float64, a, b *mat.Matrix, beta float64, c *mat.Matrix) {
	scaleRows(beta, c, 0, c.Rows)
	if alpha == 0 || a.Cols == 0 {
		return
	}
	NaiveGemm(false, true, alpha, a, b, 1, c)
}

func (handRolledKernel) DgemmNTRows(alpha float64, a, b *mat.Matrix, beta float64, c *mat.Matrix, lo, hi int) {
	scaleRows(beta, c, lo, hi)
	if alpha == 0 || a.Cols == 0 {
		return
	}
	for i := lo; i < hi; i++ {
		NaiveGemv(false, alpha, b, a.Row(i), 1, c.Row(i))
	}
}

// PackB snapshots B row-major, as the naive kernel does.
func (hk handRolledKernel) PackB(b *mat.Matrix, pb *PackedB) {
	naiveKernel{}.PackB(b, pb)
	pb.owner = hk
}

func (hk handRolledKernel) DgemmNTRowsPacked(alpha float64, a *mat.Matrix, pb *PackedB, beta float64, c *mat.Matrix, lo, hi int) {
	b := mat.Matrix{Rows: pb.rows, Cols: pb.depth, Stride: pb.depth, Data: pb.buf}
	hk.DgemmNTRows(alpha, a, &b, beta, c, lo, hi)
}

// NaiveGemm computes C ← α·op(A)·op(B) + βC with plain i-j-k loops.
func NaiveGemm(transA, transB bool, alpha float64, a, b *mat.Matrix, beta float64, c *mat.Matrix) {
	m, k := a.Rows, a.Cols
	if transA {
		m, k = a.Cols, a.Rows
	}
	kb, n := b.Rows, b.Cols
	if transB {
		kb, n = b.Cols, b.Rows
	}
	if k != kb {
		panic("blas: NaiveGemm inner dimension mismatch")
	}
	if c.Rows != m || c.Cols != n {
		panic("blas: NaiveGemm output dimension mismatch")
	}
	at := func(i, p int) float64 {
		if transA {
			return a.At(p, i)
		}
		return a.At(i, p)
	}
	bt := func(p, j int) float64 {
		if transB {
			return b.At(j, p)
		}
		return b.At(p, j)
	}
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			s := 0.0
			for p := 0; p < k; p++ {
				s += at(i, p) * bt(p, j)
			}
			c.Set(i, j, alpha*s+beta*c.At(i, j))
		}
	}
}

// NaiveGemv computes y ← αAx + βy (or the transposed form) with plain
// nested loops and no attention to access order.
func NaiveGemv(trans bool, alpha float64, a *mat.Matrix, x []float64, beta float64, y []float64) {
	m, n := a.Rows, a.Cols
	if trans {
		if len(x) != m || len(y) != n {
			panic("blas: NaiveGemv(T) dimension mismatch")
		}
		for j := 0; j < n; j++ {
			s := 0.0
			for i := 0; i < m; i++ {
				s += a.At(i, j) * x[i]
			}
			y[j] = alpha*s + beta*y[j]
		}
		return
	}
	if len(x) != n || len(y) != m {
		panic("blas: NaiveGemv(N) dimension mismatch")
	}
	for i := 0; i < m; i++ {
		s := 0.0
		for j := 0; j < n; j++ {
			s += a.At(i, j) * x[j]
		}
		y[i] = alpha*s + beta*y[i]
	}
}

// NaiveSyrk computes the full symmetric C ← α·A·Aᵀ + βC without
// exploiting symmetry — it performs the ~2n³ flops a general product
// would, exactly the cost the paper's Eq. 10 reformulation halves.
func NaiveSyrk(alpha float64, a *mat.Matrix, beta float64, c *mat.Matrix) {
	NaiveGemm(false, true, alpha, a, a, beta, c)
}
