package blas

import (
	"math"
	"math/rand"
	"testing"
)

// FuzzDgemmNT fuzzes the kernel seam: random shapes, strides, scales
// and operand values, every conformKernels() kernel checked bit-exactly
// against the naive reference through all three entry points (full,
// row-ranged, packed). CI runs this as a 30-second smoke on every
// push; the committed corpus under testdata/fuzz/FuzzDgemmNT seeds the
// 61-state codon shapes the production paths hit.
func FuzzDgemmNT(f *testing.F) {
	// (m, n, k, padA, padB, padC, alpha, beta, seed)
	f.Add(uint8(61), uint8(61), uint8(61), uint8(0), uint8(0), uint8(0), 1.0, 0.0, int64(1))
	f.Add(uint8(64), uint8(61), uint8(61), uint8(0), uint8(0), uint8(0), 1.0, 0.0, int64(2))
	f.Add(uint8(1), uint8(1), uint8(1), uint8(1), uint8(2), uint8(3), -1.0, 0.5, int64(3))
	f.Add(uint8(5), uint8(7), uint8(3), uint8(2), uint8(0), uint8(1), 0.5, -1.0, int64(4))
	f.Add(uint8(8), uint8(4), uint8(61), uint8(0), uint8(3), uint8(0), 2.0, 1.0, int64(5))

	f.Fuzz(func(t *testing.T, m, n, k, padA, padB, padC uint8, alpha, beta float64, seed int64) {
		// Clamp to useful, fast shapes; keep scales finite so the
		// bit-exact contract is meaningful (NaN payloads from Inf·0 in
		// padded lanes never escape, but the oracle comparison stays
		// simplest over finite inputs).
		mi, ni, ki := int(m%80)+1, int(n%80)+1, int(k%80)+1
		if math.IsNaN(alpha) || math.IsInf(alpha, 0) {
			alpha = 1
		}
		if math.IsNaN(beta) || math.IsInf(beta, 0) {
			beta = 0
		}
		rng := rand.New(rand.NewSource(seed))
		a := strided(rng, mi, ki, int(padA%5))
		b := strided(rng, ni, ki, int(padB%5))
		c0 := strided(rng, mi, ni, int(padC%5))
		lo := rng.Intn(mi + 1)
		hi := lo + rng.Intn(mi-lo+1)

		ref := naiveRef(t)
		want := cloneVals(c0, int(padC%5))
		ref.DgemmNT(alpha, a, b, beta, want)
		wantRows := cloneVals(c0, int(padC%5))
		ref.DgemmNTRows(alpha, a, b, beta, wantRows, lo, hi)

		for _, kr := range conformKernels() {
			got := cloneVals(c0, int(padC%5))
			kr.DgemmNT(alpha, a, b, beta, got)
			requireBitEqual(t, got, want,
				"kernel %s DgemmNT m=%d n=%d k=%d α=%g β=%g seed=%d",
				kr.Name(), mi, ni, ki, alpha, beta, seed)

			got = cloneVals(c0, int(padC%5))
			kr.DgemmNTRows(alpha, a, b, beta, got, lo, hi)
			requireBitEqual(t, got, wantRows,
				"kernel %s DgemmNTRows m=%d n=%d k=%d [%d,%d) seed=%d",
				kr.Name(), mi, ni, ki, lo, hi, seed)

			var pb PackedB
			kr.PackB(b, &pb)
			got = cloneVals(c0, int(padC%5))
			kr.DgemmNTRowsPacked(alpha, a, &pb, beta, got, lo, hi)
			requireBitEqual(t, got, wantRows,
				"kernel %s packed m=%d n=%d k=%d [%d,%d) seed=%d",
				kr.Name(), mi, ni, ki, lo, hi, seed)
		}
	})
}
