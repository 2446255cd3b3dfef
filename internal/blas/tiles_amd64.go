//go:build amd64 && !purego

package blas

import "repro/internal/mat"

// useAVX reports whether the AVX tiles in tiles_amd64.s run on this
// machine: CPUID must report AVX and OSXSAVE, and XCR0 must show that
// the OS saves the XMM and YMM registers (bits 1 and 2).
var useAVX = avxUsable()

func avxUsable() bool {
	const osxsave, avx = 1 << 27, 1 << 28
	return cpuid1ECX()&(osxsave|avx) == osxsave|avx && xcr0()&6 == 6
}

// cpuid1ECX returns ECX of CPUID leaf 1.
func cpuid1ECX() uint32

// xcr0 returns the low half of extended control register 0.
func xcr0() uint32

//go:noescape
func ntQuadAVX(a []float64, lda, k int, bp []float64, n int, alpha float64, c []float64, ldc int)

//go:noescape
func dotQuadAVX(a []float64, lda int, x []float64, dots *[4]float64)

// ntQuads runs BlockedKernel's AVX tile over rows [lo, hi) of
// C += α·A·Bᵀ, four rows per call across every panel of pb, and
// returns the first row it left for the Go tiles (lo when the CPU has
// no AVX).
func ntQuads(alpha float64, a *mat.Matrix, pb *PackedB, c *mat.Matrix, lo, hi int) int {
	if !useAVX {
		return lo
	}
	n, k := pb.rows, pb.depth
	bp := pb.buf[:(n+packNR-1)/packNR*packNR*k]
	end := lo + (hi-lo)/4*4
	if end == lo {
		return lo
	}
	// The tile reads k entries of every row of A and writes n of every
	// row of C up to end; the last row bounds all of them.
	_ = a.Row(end - 1)[:k]
	_ = c.Row(end - 1)[:n]
	for i := lo; i < end; i += 4 {
		ntQuadAVX(a.Data[i*a.Stride:], a.Stride, k, bp, n, alpha, c.Data[i*c.Stride:], c.Stride)
	}
	return end
}

// gemvQuads adds α·(row i of A)·x to y[i] four rows at a time, each
// dot product summed as Ddot sums it, and returns how many leading
// rows it did (0 when the CPU has no AVX or x is shorter than one
// lane group).
func gemvQuads(alpha float64, a *mat.Matrix, x, y []float64) int {
	if !useAVX || len(x) < 4 {
		return 0
	}
	end := a.Rows / 4 * 4
	if end == 0 {
		return 0
	}
	// The tile reads len(x) = a.Cols entries of every row up to end;
	// the last row bounds all of them.
	_ = a.Row(end - 1)
	var d [4]float64
	for i := 0; i < end; i += 4 {
		dotQuadAVX(a.Data[i*a.Stride:], a.Stride, x, &d)
		y[i] += alpha * d[0]
		y[i+1] += alpha * d[1]
		y[i+2] += alpha * d[2]
		y[i+3] += alpha * d[3]
	}
	return end
}
