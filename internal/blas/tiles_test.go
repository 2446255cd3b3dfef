package blas

import (
	"math/rand"
	"testing"

	"repro/internal/mat"
)

// TestNTTileMatchesMicroKernels holds BlockedKernel's AVX tile to the
// Go tiles it stands in for: ntQuads over [lo, hi) followed by the Go
// tiles on the rows it leaves must equal micro2x4/micro1x4 over all of
// [lo, hi) in every bit. Row ranges start on an odd row and leave odd
// remainders, column counts leave 1–3 valid lanes in the last panel
// (61 = 15·4 + 1), k runs over 0…3 as well as the codon size, and
// operands mix in NaN, ±Inf and ±0.
func TestNTTileMatchesMicroKernels(t *testing.T) {
	if !useAVX {
		t.Skip("no AVX tile in this build or on this CPU")
	}
	rng := rand.New(rand.NewSource(26))
	for _, rows := range []int{1, 3, 4, 5, 7, 8, 9, 61} {
		for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 61} {
			for _, k := range []int{0, 1, 2, 3, 4, 61} {
				for _, pad := range []int{0, 3} {
					for _, alpha := range []float64{1, -1, rng.NormFloat64()} {
						for _, special := range []bool{false, true} {
							lo, hi := 1, 1+rows
							a := strided(rng, hi, k, pad)
							b := strided(rng, n, k, pad)
							c := strided(rng, hi, n, pad)
							if special {
								for i := 0; i < hi; i++ {
									fillSpecials(rng, a.Row(i))
									fillSpecials(rng, c.Row(i))
								}
								for j := 0; j < n; j++ {
									fillSpecials(rng, b.Row(j))
								}
							}
							pb := PackNT(b, nil)
							want := cloneVals(c, pad)
							microRows(alpha, a, pb, want, lo, hi)
							got := cloneVals(c, pad)
							i := ntQuads(alpha, a, pb, got, lo, hi)
							if i != lo+rows/4*4 {
								t.Fatalf("rows=%d: the tile stopped at row %d", rows, i)
							}
							microRows(alpha, a, pb, got, i, hi)
							requireBitEqual(t, got, want, "rows=%d n=%d k=%d pad=%d α=%g specials=%v",
								rows, n, k, pad, alpha, special)
						}
					}
				}
			}
		}
	}
}

// TestDgemvTileMatchesDdot checks that Dgemv's AVX tile runs on every
// whole row quad and gives each row Ddot's bits.
func TestDgemvTileMatchesDdot(t *testing.T) {
	if !useAVX {
		t.Skip("no AVX tile in this build or on this CPU")
	}
	rng := rand.New(rand.NewSource(27))
	for _, m := range []int{4, 5, 8, 61} {
		for _, n := range []int{4, 5, 7, 61} {
			for _, special := range []bool{false, true} {
				a := strided(rng, m, n, 2)
				x, y := randVec(rng, n), randVec(rng, m)
				if special {
					for i := 0; i < m; i++ {
						fillSpecials(rng, a.Row(i))
					}
					fillSpecials(rng, x)
				}
				alpha := rng.NormFloat64()
				want := mat.VecClone(y)
				for i := range want {
					want[i] += alpha * Ddot(a.Row(i), x)
				}
				got := mat.VecClone(y)
				done := gemvQuads(alpha, a, x, got)
				if done != m/4*4 {
					t.Fatalf("m=%d n=%d: the tile did %d rows", m, n, done)
				}
				for i := done; i < m; i++ {
					got[i] += alpha * Ddot(a.Row(i), x)
				}
				requireVecBits(t, got, want, "m=%d n=%d specials=%v", m, n, special)
			}
		}
	}
}
