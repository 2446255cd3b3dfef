package blas

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/mat"
)

// The kernel conformance suite: every registered kernel must be
// BIT-exact against the naive reference kernel for every entry point
// (full, row-ranged, packed), across edge dimensions, non-contiguous
// strides, sub-range offsets, and the α/β special cases. The suite
// iterates Kernels(), so a future assembly or gonum-backed variant is
// covered automatically the moment it registers.

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
// registry plus the unregistered HandRolledKernel the baseline engine
// pins.
func conformKernels() []Kernel { return append(Kernels(), HandRolledKernel) }

func naiveRef(t *testing.T) Kernel {
	t.Helper()
	ref, ok := KernelByName("naive")
	if !ok {
		t.Fatal("naive reference kernel not registered")
	}
	return ref
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

// TestKernelConformance is the table-driven bit-exact sweep: for every
// registered kernel × (m, n, k) edge dimension × stride layout ×
// (α, β) pair, the full-matrix, row-ranged, and packed entry points
// must reproduce the naive reference exactly.
func TestKernelConformance(t *testing.T) {
	ref := naiveRef(t)
	kernels := Kernels()
	if len(kernels) < 2 {
		t.Fatalf("registry has %d kernels, want at least naive + blocked", len(kernels))
	}
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
							ref.DgemmNT(alpha, a, b, beta, want)

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
// samples for 61/64) must equal the reference restricted to those
// rows, with rows outside the range untouched — for both the unpacked
// and packed forms.
func TestKernelConformanceRowRanges(t *testing.T) {
	ref := naiveRef(t)
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
				ref.DgemmNTRows(1.25, a, b, -0.5, want, lo, hi)
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

// TestKernelPartitionBitIdentical: for every kernel, computing the row
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

// TestNaiveKernelMatchesTextbookLoops anchors the reference kernel to
// the textbook NaiveGemm loops: numerically equal everywhere (plain ==
// comparison, which treats +0 and −0 as equal — the two formulations
// differ only in how β = 0 erases a negative zero).
func TestNaiveKernelMatchesTextbookLoops(t *testing.T) {
	ref := naiveRef(t)
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
				ref.DgemmNT(alpha, a, b, beta, got)
				for i := 0; i < m; i++ {
					gr, wr := got.Row(i), want.Row(i)
					for j := range gr {
						if gr[j] != wr[j] {
							t.Fatalf("naive kernel (%d,%d) = %g, NaiveGemm %g (m=%d n=%d k=%d α=%g β=%g)",
								i, j, gr[j], wr[j], m, n, k, alpha, beta)
						}
					}
				}
			}
		}
	}
}

// TestPackedBSnapshotSemantics: a PackedB is a snapshot — mutating B
// after PackB must not change packed products, for every kernel.
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
