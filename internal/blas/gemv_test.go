package blas

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/mat"
)

// nanDefault is the NaN amd64 produces for an invalid operation
// (Inf−Inf, 0·Inf). The bit-exact tests use it for every NaN input, so
// every NaN in a computation carries this one bit pattern. When both
// operands of an add or multiply are NaNs, the hardware returns the
// one in the first operand position, and the Go compiler is free to
// commute the operands of either; with two different payloads the
// result would test the register allocator, not the arithmetic.
var nanDefault = math.Float64frombits(0xfff8000000000000)

// specials are the IEEE values the bit-exact tests mix into operands.
var specials = []float64{nanDefault, math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1)}

// fillSpecials overwrites roughly one entry in eight of v with a value
// from specials.
func fillSpecials(rng *rand.Rand, v []float64) {
	for i := range v {
		if rng.Intn(8) == 0 {
			v[i] = specials[rng.Intn(len(specials))]
		}
	}
}

// refRowDot is Ddot's summation order written out on its own: four
// lane accumulators, lane l summing x[4j+l]·y[4j+l] in ascending j,
// combined as ((s0+s1)+s2)+s3, then the n%4 tail added in ascending
// order.
func refRowDot(x, y []float64) float64 {
	var lanes [4]float64
	n := len(x) / 4 * 4
	for i := 0; i < n; i++ {
		lanes[i%4] += x[i] * y[i]
	}
	s := lanes[0] + lanes[1]
	s += lanes[2]
	s += lanes[3]
	for i := n; i < len(x); i++ {
		s += x[i] * y[i]
	}
	return s
}

// refDgemvN is Dgemv's no-transpose contract written out row by row:
// β = 0 overwrites y (so a NaN in y does not survive), β = 1 leaves it
// as is, any other β scales it; then, unless α is 0, row i adds
// α·refRowDot(row i, x) to y[i].
func refDgemvN(alpha float64, a *mat.Matrix, x []float64, beta float64, y []float64) {
	for i := range y {
		switch beta {
		case 0:
			y[i] = 0
		case 1:
		default:
			y[i] *= beta
		}
	}
	if alpha == 0 {
		return
	}
	for i := range y {
		y[i] += alpha * refRowDot(a.Row(i), x)
	}
}

// requireVecBits fails unless got and want agree in every bit.
func requireVecBits(t *testing.T, got, want []float64, format string, args ...any) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf(format+": y[%d] = %x, reference %x",
				append(args, i, math.Float64bits(got[i]), math.Float64bits(want[i]))...)
		}
	}
}

// checkDgemvN runs Dgemv(false, …) and the row-by-row oracle on the
// same operands and requires bit-equal y.
func checkDgemvN(t *testing.T, rng *rand.Rand, m, n, pad int, alpha, beta float64, special bool) {
	t.Helper()
	a := strided(rng, m, n, pad)
	x := randVec(rng, n)
	y0 := randVec(rng, m)
	if special {
		for i := 0; i < m; i++ {
			fillSpecials(rng, a.Row(i))
		}
		fillSpecials(rng, x)
		fillSpecials(rng, y0)
	}
	want := mat.VecClone(y0)
	refDgemvN(alpha, a, x, beta, want)
	got := mat.VecClone(y0)
	Dgemv(false, alpha, a, x, beta, got)
	requireVecBits(t, got, want, "Dgemv(N) m=%d n=%d pad=%d α=%g β=%g specials=%v", m, n, pad, alpha, beta, special)
}

// TestDgemvMatchesRowDdotBits pins Dgemv's no-transpose bits: every
// y[i] must equal, bit for bit, the row-by-row Ddot-order oracle,
// whatever tiling Dgemv uses inside. It sweeps m and n over 0…9 and
// 61 (so row counts off a multiple of 4 and n < 4 are covered),
// packed and strided A, α and β over 0, 1, −1 and a random value, and
// operands with and without NaN, ±Inf and ±0 entries.
func TestDgemvMatchesRowDdotBits(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	dims := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 61}
	for _, m := range dims {
		for _, n := range dims {
			for _, pad := range []int{0, 3} {
				for _, alpha := range []float64{0, 1, -1, rng.NormFloat64()} {
					for _, beta := range []float64{0, 1, -1, rng.NormFloat64()} {
						for _, special := range []bool{false, true} {
							checkDgemvN(t, rng, m, n, pad, alpha, beta, special)
						}
					}
				}
			}
		}
	}
}

// TestRowDotOracleIsDdot ties the oracle's summation order to Ddot's,
// so a change to either one shows here first.
func TestRowDotOracleIsDdot(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for n := 0; n <= 70; n++ {
		for _, special := range []bool{false, true} {
			x, y := randVec(rng, n), randVec(rng, n)
			if special {
				fillSpecials(rng, x)
				fillSpecials(rng, y)
			}
			got, want := Ddot(x, y), refRowDot(x, y)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("n=%d specials=%v: Ddot %x, oracle %x", n, special, math.Float64bits(got), math.Float64bits(want))
			}
		}
	}
}

// FuzzDgemv fuzzes the same bit-exact check as
// TestDgemvMatchesRowDdotBits over random shapes, strides, scales and
// operand values. CI runs it as a 30-second smoke next to FuzzDgemmNT.
func FuzzDgemv(f *testing.F) {
	// (m, n, pad, alpha, beta, special, seed)
	f.Add(uint8(61), uint8(61), uint8(0), 1.0, 0.0, false, int64(1))
	f.Add(uint8(64), uint8(61), uint8(3), -1.0, 1.0, false, int64(2))
	f.Add(uint8(7), uint8(3), uint8(1), 0.5, -1.0, true, int64(3))
	f.Add(uint8(9), uint8(5), uint8(2), 2.0, 0.25, true, int64(4))
	f.Add(uint8(0), uint8(4), uint8(0), 1.0, 1.0, false, int64(5))

	f.Fuzz(func(t *testing.T, m, n, pad uint8, alpha, beta float64, special bool, seed int64) {
		// Keep α and β finite: the special-value mix already puts NaN
		// and ±Inf into the operands, where the oracle pins them.
		if math.IsNaN(alpha) || math.IsInf(alpha, 0) {
			alpha = 1
		}
		if math.IsNaN(beta) || math.IsInf(beta, 0) {
			beta = 0
		}
		rng := rand.New(rand.NewSource(seed))
		checkDgemvN(t, rng, int(m%80), int(n%80), int(pad%5), alpha, beta, special)
	})
}
