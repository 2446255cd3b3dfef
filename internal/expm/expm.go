// Package expm computes transition probability matrices P(t) = e^{Qt}
// for reversible codon models — the computational core the paper
// optimizes (§II-C1, §III-A).
//
// For a reversible Q = S·Π with S symmetric, the problem is
// transformed to a symmetric one (paper Eq. 2–5):
//
//	A := Π^{1/2} S Π^{1/2},   e^{Qt} = Π^{-1/2} e^{At} Π^{1/2},
//
// and A is eigendecomposed once per Q (A = X Λ Xᵀ). Each branch
// length t then costs one diagonal scaling plus one matrix product:
//
//	Eq. 9 (CodeML):     Ỹ = X e^{Λt},   Z = Ỹ Xᵀ      (dgemm, ≈2n³)
//	Eq. 10 (SlimCodeML): Y = X e^{Λt/2}, Z = Y Yᵀ      (dsyrk, ≈n³)
//
// followed by P = Π^{-1/2} Z Π^{1/2} (O(n²)).
//
// The package also implements the paper's Eq. 12–13 formulation for
// conditional probability vectors: the symmetric kernel
// M := Ŷ Ŷᵀ with Ŷ = Π^{-1/2} X e^{Λt/2} satisfies e^{Qt}w = M·(Πw),
// so per-site updates can use a symmetric mat-vec (half the memory
// traffic of a general one) and P itself is never formed.
package expm

import (
	"fmt"
	"math"

	"repro/internal/blas"
	"repro/internal/lapack"
	"repro/internal/mat"
)

// Method selects how P(t) is assembled from the eigendecomposition.
type Method int

const (
	// MethodGEMM is the paper's Eq. 9: a general matrix product
	// Z = Ỹ Xᵀ (≈2n³ flops) on a blas.Kernel — blas.HandRolledKernel
	// models original CodeML's hand-rolled loops.
	MethodGEMM Method = iota
	// MethodSYRK is the paper's Eq. 10: the symmetric rank-k update
	// Z = Y Yᵀ using Dsyrk (≈n³ flops) — SlimCodeML's improvement.
	MethodSYRK
)

// String names the method.
func (m Method) String() string {
	switch m {
	case MethodGEMM:
		return "gemm"
	case MethodSYRK:
		return "syrk"
	}
	return fmt.Sprintf("method(%d)", int(m))
}

// Decomposition caches the symmetric eigendecomposition of one rate
// matrix so that transition matrices for every branch length reuse it.
// It is immutable after construction and therefore safe for concurrent
// use; per-call scratch space lives in Workspace.
type Decomposition struct {
	n         int
	pi        []float64
	sqrtPi    []float64
	invSqrtPi []float64
	lambda    []float64   // eigenvalues of A, ascending
	x         *mat.Matrix // eigenvectors of A (columns)
}

// Workspace holds the scratch matrices one goroutine needs to build
// P(t) or the symmetric kernel M(t) without allocating. A Workspace is
// resizable: PMatrix and SymKernel re-view it for the decomposition's
// dimension on entry, growing the backing buffers only when a larger
// state space than any seen before arrives. One workspace can
// therefore serve models of mixed sizes (e.g. the 61-state universal
// and 60-state mitochondrial codes in one batch) without churn.
type Workspace struct {
	n          int
	y          *mat.Matrix // X with scaled columns (view into ybuf)
	z          *mat.Matrix // Z = e^{At} or intermediate (view into zbuf)
	d          []float64   // scaled exponentials of eigenvalues
	ybuf, zbuf []float64
}

// NewWorkspace returns scratch space for n-state models. It grows on
// demand (see Resize), so n is a starting size, not a limit.
func NewWorkspace(n int) *Workspace {
	w := &Workspace{}
	w.Resize(n)
	return w
}

// NewWorkspace returns scratch space sized for d.
func (d *Decomposition) NewWorkspace() *Workspace {
	return NewWorkspace(d.n)
}

// Resize re-views the workspace for n-state models, reallocating the
// backing buffers only when n exceeds every size seen before. Cheap
// when n is unchanged (the common case: one model size per engine).
func (w *Workspace) Resize(n int) {
	if n == w.n {
		return
	}
	if cap(w.ybuf) < n*n {
		w.ybuf = make([]float64, n*n)
		w.zbuf = make([]float64, n*n)
	}
	if cap(w.d) < n {
		w.d = make([]float64, n)
	}
	w.n = n
	w.y = mat.NewFromSlice(n, n, w.ybuf[:n*n])
	w.z = mat.NewFromSlice(n, n, w.zbuf[:n*n])
	w.d = w.d[:n]
}

// Arena is a worker-indexed set of Workspaces: slot i belongs to the
// goroutine currently holding worker ID i of an executor (lik.Pool
// hands out such IDs; a pool-less engine is its own single worker).
// Because each slot is touched only by its current holder, At needs no
// locking — the arena is safe for concurrent use across workers, and
// one arena serves every engine sharing the executor, lazily sized per
// worker to the largest state space that worker has seen.
type Arena struct {
	ws []*Workspace
}

// NewArena returns an arena with the given number of worker slots.
func NewArena(slots int) *Arena {
	if slots < 1 {
		slots = 1
	}
	return &Arena{ws: make([]*Workspace, slots)}
}

// Slots returns the number of worker slots.
func (a *Arena) Slots() int { return len(a.ws) }

// At returns worker's workspace, resized for n-state models. It must
// only be called by the goroutine currently holding that worker ID.
func (a *Arena) At(worker, n int) *Workspace {
	w := a.ws[worker]
	if w == nil {
		w = NewWorkspace(n)
		a.ws[worker] = w
		return w
	}
	w.Resize(n)
	return w
}

// Decompose symmetrizes the factored rate matrix (S, π) per Eq. 2 and
// eigendecomposes it. S must be the symmetric exchangeability factor
// with diagonal chosen so Q = S·Π has zero row sums (as produced by
// codon.NewRate); π must be strictly positive. The result holds Λ and
// X only, not a kernel-packed copy of X: each PMatrix call hands X to
// its kernel as is, so one decomposition serves engines on either
// kernel.
func Decompose(s *mat.Matrix, pi []float64) (*Decomposition, error) {
	n := s.Rows
	if s.Cols != n {
		return nil, fmt.Errorf("expm: S must be square, got %d×%d", s.Rows, s.Cols)
	}
	if len(pi) != n {
		return nil, fmt.Errorf("expm: π has %d entries for n=%d", len(pi), n)
	}
	d := &Decomposition{
		n:         n,
		pi:        mat.VecClone(pi),
		sqrtPi:    make([]float64, n),
		invSqrtPi: make([]float64, n),
	}
	for i, p := range pi {
		if !(p > 0) {
			return nil, fmt.Errorf("expm: π[%d] = %g must be positive", i, p)
		}
		d.sqrtPi[i] = math.Sqrt(p)
		d.invSqrtPi[i] = 1 / d.sqrtPi[i]
	}

	// A = Π^{1/2} S Π^{1/2}: scale rows and columns of S.
	a := s.Clone()
	a.ScaleRows(d.sqrtPi)
	a.ScaleCols(d.sqrtPi)
	// Guard against rounding asymmetry before the symmetric solver.
	a.Symmetrize()

	eig, err := lapack.DsyevInPlace(a)
	if err != nil {
		return nil, fmt.Errorf("expm: eigendecomposition failed: %w", err)
	}
	d.lambda = eig.Values
	d.x = eig.Vectors
	return d, nil
}

// N returns the matrix dimension.
func (d *Decomposition) N() int { return d.n }

// Eigenvalues returns the eigenvalues of the symmetrized matrix A
// (equal to the eigenvalues of Q). The slice must not be modified.
func (d *Decomposition) Eigenvalues() []float64 { return d.lambda }

// PMatrix computes P(t) = e^{Qt} into dst (n×n) using the selected
// method, running MethodGEMM's product on blas.BlockedKernel. t must
// be non-negative. Small negative entries arising from rounding are
// clamped to zero, as CodeML does, so downstream likelihoods remain
// non-negative.
func (d *Decomposition) PMatrix(t float64, method Method, dst *mat.Matrix, ws *Workspace) {
	d.PMatrixOn(blas.BlockedKernel, t, method, dst, ws)
}

// PMatrixOn is PMatrix with MethodGEMM's Ỹ·Xᵀ product run on kernel k
// — the engine's own kernel (lik.Config.Kernel). Both kernels are
// bit-exact, so k changes speed only.
func (d *Decomposition) PMatrixOn(k blas.Kernel, t float64, method Method, dst *mat.Matrix, ws *Workspace) {
	if t < 0 {
		panic(fmt.Sprintf("expm: negative branch length %g", t))
	}
	if dst.Rows != d.n || dst.Cols != d.n {
		panic("expm: PMatrix output dimension mismatch")
	}
	ws.Resize(d.n)
	switch method {
	case MethodGEMM:
		// Eq. 9: Ỹ = X·e^{Λt}; Z = Ỹ·Xᵀ.
		for i, l := range d.lambda {
			ws.d[i] = math.Exp(l * t)
		}
		ws.y.CopyFrom(d.x)
		ws.y.ScaleCols(ws.d)
		k.DgemmNT(1, ws.y, d.x, 0, ws.z)
	case MethodSYRK:
		// Eq. 10–11: Y = X·e^{Λt/2}; Z = Y·Yᵀ.
		for i, l := range d.lambda {
			ws.d[i] = math.Exp(l * t / 2)
		}
		ws.y.CopyFrom(d.x)
		ws.y.ScaleCols(ws.d)
		blas.Dsyrk(false, 1, ws.y, 0, ws.z)
	default:
		panic(fmt.Sprintf("expm: unknown method %v", method))
	}

	// P = Π^{-1/2} Z Π^{1/2}, clamping rounding negatives.
	for i := 0; i < d.n; i++ {
		zrow := ws.z.Row(i)
		prow := dst.Row(i)
		ri := d.invSqrtPi[i]
		for j := 0; j < d.n; j++ {
			v := ri * zrow[j] * d.sqrtPi[j]
			if v < 0 {
				v = 0
			}
			prow[j] = v
		}
	}
}

// SymKernel computes the symmetric kernel M(t) = Ŷ Ŷᵀ of Eq. 12–13
// into dst, where Ŷ = Π^{-1/2} X e^{Λt/2}. M satisfies
// e^{Qt}·w = M·(Π∘w) (see ApplySym), so per-site conditional-vector
// updates can use the symmetric Dsymv and P is never formed.
func (d *Decomposition) SymKernel(t float64, dst *mat.Matrix, ws *Workspace) {
	if t < 0 {
		panic(fmt.Sprintf("expm: negative branch length %g", t))
	}
	if dst.Rows != d.n || dst.Cols != d.n {
		panic("expm: SymKernel output dimension mismatch")
	}
	ws.Resize(d.n)
	for i, l := range d.lambda {
		ws.d[i] = math.Exp(l * t / 2)
	}
	// Ŷ = Π^{-1/2} X e^{Λt/2}.
	ws.y.CopyFrom(d.x)
	ws.y.ScaleRows(d.invSqrtPi)
	ws.y.ScaleCols(ws.d)
	blas.Dsyrk(false, 1, ws.y, 0, dst)
}

// ApplySym computes dst = e^{Qt}·w given the symmetric kernel m
// produced by SymKernel: dst = M·(Π∘w). scratch must have length n.
// Negative results from rounding are clamped to zero.
func (d *Decomposition) ApplySym(m *mat.Matrix, w, dst, scratch []float64) {
	if len(w) != d.n || len(dst) != d.n || len(scratch) != d.n {
		panic("expm: ApplySym dimension mismatch")
	}
	for i := range scratch {
		scratch[i] = d.pi[i] * w[i]
	}
	blas.Dsymv(1, m, scratch, 0, dst)
	for i, v := range dst {
		if v < 0 {
			dst[i] = 0
		}
	}
}
