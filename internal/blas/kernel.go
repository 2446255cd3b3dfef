package blas

import (
	"fmt"

	"repro/internal/mat"
)

// The kernel seam: every NT-shaped matrix product the likelihood
// computation performs — C ← α·A·Bᵀ + βC with A m×k, B n×k, both
// k-contiguous in row-major storage — runs on a Kernel. The shape is
// the hot one everywhere: the Eq. 9 transition build (Ỹ·Xᵀ in
// expm.PMatrix) and the BLAS-3 bundled conditional-vector update
// (partial·Pᵀ in lik.applyBranch) are both NT products on the 61-state
// codon space.
//
// Exactly two kernels ship, and each engine names its own in
// lik.Config.Kernel; nothing else selects one. HandRolledKernel
// (naive.go) is the baseline engine's: original CodeML's textbook
// loops. BlockedKernel (blocked.go) is every slim engine's: the
// register-blocked micro-kernel that stands in for tuned BLAS. The
// paper's hand-rolled vs tuned contrast is exactly this pair.
//
// Both kernels MUST be bit-exact against the textbook reference: per
// output element, one scalar accumulator summed in strictly ascending
// k order, α applied once to the finished sum, β applied once to the
// previous C value. A kernel is free to reorder loops, tile registers,
// and pack operands — none of that changes the per-element
// floating-point operation sequence — but it may not split an
// accumulation (partial α applications) or reassociate the k sum. The
// conformance suite (conform_test.go) and the fuzz harness
// (FuzzDgemmNT) check both kernels against a test-local oracle, so the
// engine-level determinism contract (results bit-identical across
// worker counts, tilings, shards, and resumes) extends across the two:
// the baseline and slim engines differ in speed and in their optimizer
// trajectory, never in the arithmetic of one product.

// Kernel is one implementation of the NT product family. Methods may
// assume validated arguments (DgemmNTRowsPacked and the conformance
// suite check shapes); implementations must be safe for concurrent
// use — any scratch is per-call or pool-owned, never shared between
// two in-flight calls.
type Kernel interface {
	// Name identifies the kernel in logs, benchmarks and PackedB.Kernel.
	Name() string
	// DgemmNT computes C ← α·A·Bᵀ + βC (A: m×k, B: n×k, C: m×n).
	DgemmNT(alpha float64, a, b *mat.Matrix, beta float64, c *mat.Matrix)
	// DgemmNTRows computes rows [lo, hi) of C ← α·A·Bᵀ + βC. Row i's
	// result must not depend on lo, hi, or which rows share a tile —
	// the property the parallel engine's determinism rests on.
	DgemmNTRows(alpha float64, a, b *mat.Matrix, beta float64, c *mat.Matrix, lo, hi int)
	// PackB snapshots B into pb's kernel-private layout for repeated
	// products (pb.buf is reused when large enough). The snapshot does
	// not track later mutations of b: re-pack after changing it.
	PackB(b *mat.Matrix, pb *PackedB)
	// DgemmNTRowsPacked is DgemmNTRows with a B previously packed by
	// this kernel.
	DgemmNTRowsPacked(alpha float64, a *mat.Matrix, pb *PackedB, beta float64, c *mat.Matrix, lo, hi int)
}

// PackedB is a B operand prepared once for repeated NT products — the
// pack-once/reuse path that amortizes packing across the optimizer's
// repeated per-branch products. The layout is private to the kernel
// that packed it, and DgemmNTRowsPacked routes to that kernel.
type PackedB struct {
	owner Kernel
	rows  int // n: rows of B = columns of C
	depth int // k: the contraction length
	buf   []float64
}

// Kernel returns the name of the kernel that packed pb, or "" if pb
// has never been packed.
func (pb *PackedB) Kernel() string {
	if pb.owner == nil {
		return ""
	}
	return pb.owner.Name()
}

// Dims returns the (n, k) dimensions of the packed operand.
func (pb *PackedB) Dims() (n, k int) { return pb.rows, pb.depth }

// grow resizes pb.buf to length need, reusing capacity.
func (pb *PackedB) grow(need int) []float64 {
	if cap(pb.buf) < need {
		pb.buf = make([]float64, need)
	}
	pb.buf = pb.buf[:need]
	return pb.buf
}

// ActiveKernel returns BlockedKernel. Nothing selects a kernel at
// runtime any more; the function stays for callers written against
// the removed process-wide kernel switch.
func ActiveKernel() Kernel { return BlockedKernel }

// SetKernel changes nothing. It accepts the two names the removed
// process-wide kernel switch knew, "naive" and "blocked", and returns
// an error for any other, so callers written against that switch keep
// working; every kernel is bit-exact, so the switch never changed a
// result. The engine names its kernel in lik.Config.Kernel.
func SetKernel(name string) error {
	switch name {
	case "naive", "blocked":
		return nil
	}
	return fmt.Errorf("blas: unknown kernel %q (have naive, blocked)", name)
}

// PackNT packs B with BlockedKernel for repeated NT products, reusing
// pb's buffer when one is passed (nil allocates a fresh one). Returns
// pb for chaining.
func PackNT(b *mat.Matrix, pb *PackedB) *PackedB {
	if pb == nil {
		pb = &PackedB{}
	}
	BlockedKernel.PackB(b, pb)
	return pb
}

// DgemmNTRowsPacked computes rows [lo, hi) of C ← α·A·Bᵀ + βC with a
// B pre-packed by PackB, on the kernel that packed it — the entry
// point the likelihood engine's pattern-block tiles use: each block of
// site patterns (rows of A and C) is pushed through the same packed
// transition matrix independently. Row i's result does not depend on
// lo, hi, or which rows share a register tile, so splitting the range
// across any number of concurrent calls is bit-identical to one
// full-range call — the property the parallel engine's determinism
// guarantee rests on.
func DgemmNTRowsPacked(alpha float64, a *mat.Matrix, pb *PackedB, beta float64, c *mat.Matrix, lo, hi int) {
	if pb.owner == nil {
		panic("blas: DgemmNTRowsPacked with an unpacked PackedB")
	}
	if a.Cols != pb.depth {
		panic("blas: DgemmNTRowsPacked inner dimension mismatch")
	}
	if c.Rows != a.Rows || c.Cols != pb.rows {
		panic("blas: DgemmNTRowsPacked output dimension mismatch")
	}
	if lo < 0 || hi > a.Rows || lo > hi {
		panic("blas: DgemmNTRowsPacked row range out of bounds")
	}
	pb.owner.DgemmNTRowsPacked(alpha, a, pb, beta, c, lo, hi)
}

// DgemmNTPacked computes the full C ← α·A·Bᵀ + βC with a pre-packed B.
func DgemmNTPacked(alpha float64, a *mat.Matrix, pb *PackedB, beta float64, c *mat.Matrix) {
	DgemmNTRowsPacked(alpha, a, pb, beta, c, 0, a.Rows)
}

// scaleRows applies the β pre-scale to rows [lo, hi) of C. Combined
// with a later c += α·s this matches the reference α·s + β·c exactly
// (IEEE addition is commutative; each product is rounded once either
// way), so kernels share it.
func scaleRows(beta float64, c *mat.Matrix, lo, hi int) {
	if beta == 1 {
		return
	}
	for i := lo; i < hi; i++ {
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
