package blas

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/mat"
)

// The kernel conformance suite: both shipped kernels must be
// BIT-exact against a test-local oracle (refNTRows, independent of
// both) for every entry point (full, row-ranged, packed), across edge
// dimensions, non-contiguous strides, sub-range offsets, and the α/β
// special cases.

var (
	confDims   = []int{1, 2, 3, 4, 5, 7, 8, 61, 64}
	confScales = []float64{0, 1, -1, 0.5}
)

// strided returns an r×c matrix whose rows live inside a wider backing
// array (Stride = c + pad), filled with deterministic values.
func strided(rng *rand.Rand, r, c, pad int) *mat.Matrix {
	full := mat.New(r, c+pad)
	for i := 0; i < r; i++ {
		for _, row := range [][]float64{full.Row(i)} {
			for j := range row {
				row[j] = rng.NormFloat64()
			}
		}
	}
	if pad == 0 {
		return full
	}
	return full.SubMatrix(0, 0, r, c)
}

// cloneVals deep-copies a possibly-strided matrix into an equally
// strided destination so β paths read identical prior C values.
func cloneVals(m *mat.Matrix, pad int) *mat.Matrix {
	out := mat.New(m.Rows, m.Cols+pad)
	view := out
	if pad != 0 {
		view = out.SubMatrix(0, 0, m.Rows, m.Cols)
	}
	for i := 0; i < m.Rows; i++ {
		copy(view.Row(i), m.Row(i))
	}
	return view
}

// bitEqual reports whether two matrices agree in every element's exact
// bit pattern (so +0 vs −0 and NaN payloads count as differences).
func bitEqual(a, b *mat.Matrix) (int, int, bool) {
	for i := 0; i < a.Rows; i++ {
		ra, rb := a.Row(i), b.Row(i)
		for j := range ra {
			if math.Float64bits(ra[j]) != math.Float64bits(rb[j]) {
				return i, j, false
			}
		}
	}
	return 0, 0, true
}

func requireBitEqual(t *testing.T, got, want *mat.Matrix, format string, args ...any) {
	t.Helper()
	if i, j, ok := bitEqual(got, want); !ok {
		t.Fatalf("%s: element (%d,%d) = %x, reference %x",
			fmt.Sprintf(format, args...), i, j,
			math.Float64bits(got.At(i, j)), math.Float64bits(want.At(i, j)))
	}
}

// conformKernels is every kernel held to the bit-exact contract: the
// slim engines' BlockedKernel and the baseline engine's
// HandRolledKernel.
func conformKernels() []Kernel { return []Kernel{BlockedKernel, HandRolledKernel} }

// refNTRows is the oracle both kernels are checked against: plain
// per-element loops in the canonical accumulation order every kernel
// must reproduce bit-exactly — one scalar accumulator per output
// element, summed over k in ascending order, α applied once to the
// finished sum, β applied once to the previous C value — over rows
// [lo, hi) of C ← α·A·Bᵀ + βC. It shares no code with the kernels:
// β = 0 overwrites (so a NaN in C does not survive) and β = 1 leaves C
// as is, and α = 0 or k = 0 adds nothing (so a −0 in C survives).
func refNTRows(alpha float64, a, b *mat.Matrix, beta float64, c *mat.Matrix, lo, hi int) {
	for i := lo; i < hi; i++ {
		arow, crow := a.Row(i), c.Row(i)
		for j := range crow {
			switch beta {
			case 0:
				crow[j] = 0
			case 1:
			default:
				crow[j] *= beta
			}
		}
		if alpha == 0 || a.Cols == 0 {
			continue
		}
		for j := 0; j < b.Rows; j++ {
			brow := b.Row(j)
			var s float64
			for p, av := range arow {
				s += av * brow[p]
			}
			crow[j] += alpha * s
		}
	}
}

// refNT is refNTRows over every row of C.
func refNT(alpha float64, a, b *mat.Matrix, beta float64, c *mat.Matrix) {
	refNTRows(alpha, a, b, beta, c, 0, a.Rows)
}

// subRanges enumerates the (lo, hi) pairs to exercise: exhaustive for
// small m, boundary-straddling samples (tile edges at the MR = 4
// multiples) for the codon-sized dims.
func subRanges(m int) [][2]int {
	if m <= 8 {
		var out [][2]int
		for lo := 0; lo <= m; lo++ {
			for hi := lo; hi <= m; hi++ {
				out = append(out, [2]int{lo, hi})
			}
		}
		return out
	}
	return [][2]int{
		{0, m}, {0, 0}, {m, m}, {0, 1}, {m - 1, m},
		{1, m - 1}, {3, 5}, {4, 8}, {2, m - 3}, {m / 2, m},
	}
}

// TestKernelConformance is the table-driven bit-exact sweep: for both
// kernels × (m, n, k) edge dimension × stride layout × (α, β) pair,
// the full-matrix and packed entry points must reproduce the oracle
// exactly.
func TestKernelConformance(t *testing.T) {
	rng := rand.New(rand.NewSource(7))

	for _, m := range confDims {
		for _, n := range confDims {
			for _, k := range confDims {
				for _, pad := range []int{0, 3} {
					a := strided(rng, m, k, pad)
					b := strided(rng, n, k, pad)
					c0 := strided(rng, m, n, pad)
					for _, alpha := range confScales {
						for _, beta := range confScales {
							want := cloneVals(c0, pad)
							refNT(alpha, a, b, beta, want)

							for _, kr := range conformKernels() {
								got := cloneVals(c0, pad)
								kr.DgemmNT(alpha, a, b, beta, got)
								requireBitEqual(t, got, want,
									"kernel %s DgemmNT m=%d n=%d k=%d pad=%d α=%g β=%g",
									kr.Name(), m, n, k, pad, alpha, beta)

								var pb PackedB
								kr.PackB(b, &pb)
								got = cloneVals(c0, pad)
								kr.DgemmNTRowsPacked(alpha, a, &pb, beta, got, 0, m)
								requireBitEqual(t, got, want,
									"kernel %s packed m=%d n=%d k=%d pad=%d α=%g β=%g",
									kr.Name(), m, n, k, pad, alpha, beta)
							}
						}
					}
				}
			}
		}
	}
}

// TestKernelConformanceRowRanges checks the DgemmNTRows sub-range
// entry point: every (lo, hi) offset (exhaustive for m ≤ 8, tile-edge
// samples for 61/64) must equal the oracle restricted to those rows,
// with rows outside the range untouched — for both the unpacked and
// packed forms.
func TestKernelConformanceRowRanges(t *testing.T) {
	rng := rand.New(rand.NewSource(11))

	for _, m := range confDims {
		for _, dims := range [][2]int{{5, 7}, {61, 61}} {
			n, k := dims[0], dims[1]
			a := strided(rng, m, k, 2)
			b := strided(rng, n, k, 2)
			c0 := strided(rng, m, n, 2)
			for _, rg := range subRanges(m) {
				lo, hi := rg[0], rg[1]
				want := cloneVals(c0, 2)
				refNTRows(1.25, a, b, -0.5, want, lo, hi)
				for _, kr := range conformKernels() {
					got := cloneVals(c0, 2)
					kr.DgemmNTRows(1.25, a, b, -0.5, got, lo, hi)
					requireBitEqual(t, got, want,
						"kernel %s DgemmNTRows m=%d n=%d k=%d range [%d,%d)",
						kr.Name(), m, n, k, lo, hi)

					var pb PackedB
					kr.PackB(b, &pb)
					got = cloneVals(c0, 2)
					kr.DgemmNTRowsPacked(1.25, a, &pb, -0.5, got, lo, hi)
					requireBitEqual(t, got, want,
						"kernel %s packed rows m=%d n=%d k=%d range [%d,%d)",
						kr.Name(), m, n, k, lo, hi)
				}
			}
		}
	}
}

// TestKernelPartitionBitIdentical: for both kernels, computing the row
// range in arbitrary disjoint chunks must be bit-identical to one
// full-range call — the split-anywhere property the parallel engine's
// determinism contract rests on.
func TestKernelPartitionBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	const m, n, k = 61, 61, 61
	a := strided(rng, m, k, 0)
	b := strided(rng, n, k, 0)
	splits := [][]int{
		{0, m},
		{0, 1, m},
		{0, 3, 4, 5, 8, 16, 31, 32, m},
		{0, 7, 14, 21, 28, 35, 42, 49, 56, m},
	}
	for _, kr := range conformKernels() {
		full := mat.New(m, n)
		kr.DgemmNTRows(1, a, b, 0, full, 0, m)
		var pb PackedB
		kr.PackB(b, &pb)
		for _, cuts := range splits {
			got := mat.New(m, n)
			for i := 0; i+1 < len(cuts); i++ {
				kr.DgemmNTRows(1, a, b, 0, got, cuts[i], cuts[i+1])
			}
			requireBitEqual(t, got, full, "kernel %s split %v", kr.Name(), cuts)

			got = mat.New(m, n)
			for i := 0; i+1 < len(cuts); i++ {
				kr.DgemmNTRowsPacked(1, a, &pb, 0, got, cuts[i], cuts[i+1])
			}
			requireBitEqual(t, got, full, "kernel %s packed split %v", kr.Name(), cuts)
		}
	}
}

// TestNaiveKernelMatchesTextbookLoops anchors the oracle to the
// textbook NaiveGemm loops: numerically equal everywhere (plain ==
// comparison, which treats +0 and −0 as equal — the two formulations
// differ only in how β = 0 erases a negative zero).
func TestNaiveKernelMatchesTextbookLoops(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, dims := range [][3]int{{1, 1, 1}, {3, 5, 2}, {8, 7, 4}, {61, 61, 61}, {64, 61, 61}} {
		m, n, k := dims[0], dims[1], dims[2]
		a := strided(rng, m, k, 0)
		b := strided(rng, n, k, 0)
		c0 := strided(rng, m, n, 0)
		for _, alpha := range confScales {
			for _, beta := range confScales {
				want := cloneVals(c0, 0)
				NaiveGemm(false, true, alpha, a, b, beta, want)
				got := cloneVals(c0, 0)
				refNT(alpha, a, b, beta, got)
				for i := 0; i < m; i++ {
					gr, wr := got.Row(i), want.Row(i)
					for j := range gr {
						if gr[j] != wr[j] {
							t.Fatalf("oracle (%d,%d) = %g, NaiveGemm %g (m=%d n=%d k=%d α=%g β=%g)",
								i, j, gr[j], wr[j], m, n, k, alpha, beta)
						}
					}
				}
			}
		}
	}
}

// TestPackedBSnapshotSemantics: a PackedB is a snapshot — mutating B
// after PackB must not change packed products, for both kernels.
func TestPackedBSnapshotSemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	a := strided(rng, 8, 5, 0)
	for _, kr := range conformKernels() {
		b := strided(rng, 6, 5, 0)
		var pb PackedB
		kr.PackB(b, &pb)
		want := mat.New(8, 6)
		kr.DgemmNTRowsPacked(1, a, &pb, 0, want, 0, 8)
		for i := range b.Data {
			b.Data[i] = math.NaN()
		}
		got := mat.New(8, 6)
		kr.DgemmNTRowsPacked(1, a, &pb, 0, got, 0, 8)
		requireBitEqual(t, got, want, "kernel %s pack snapshot", kr.Name())
		if got := pb.Kernel(); got != kr.Name() {
			t.Fatalf("PackedB.Kernel() = %q, want %q", got, kr.Name())
		}
		if n, k := pb.Dims(); n != 6 || k != 5 {
			t.Fatalf("PackedB.Dims() = (%d,%d), want (6,5)", n, k)
		}
	}
}
