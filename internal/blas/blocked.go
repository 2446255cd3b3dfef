package blas

import (
	"sync"

	"repro/internal/mat"
)

// BlockedKernel is the slim engines' NT kernel and Dgemm's N·Tᵀ case:
// the register-blocked micro-kernel with explicit B packing — the
// restructured inner GEMM the paper attributes SlimCodeML's headline
// win to, sized for the 61-state codon space.
//
// B is packed once into panels of packNR interleaved rows (element
// (j0+r, p) at panel[p·NR+r]), so a tile loads one contiguous 4-wide
// strip of B per k step. A needs no packing: its rows are already
// k-contiguous in row-major storage. With n = 61, one padded 64×61 B
// pack is ~31 KiB — L1/L2-resident for the whole product.
//
// Two tiles share that layout. On amd64 with AVX (tiles_amd64.s) rows
// go four at a time through a 4×4 tile: each row of A keeps one ymm
// accumulator whose lane q is column j0+q, A[i][p] is broadcast
// against the B strip, and one call walks every panel. Five loads
// (one strip, four broadcasts) feed 16 multiplies and 16 adds per k
// step, twice the Go tile's 8 per 6. The rows left over, and every row
// under the purego tag, on other architectures or on CPUs without
// AVX, go through the Go tiles: micro2x4 on row pairs and micro1x4 on
// an odd last row. They stay 2×4 because amd64 has 16 scalar float
// registers: 8 accumulators + 6 operands fit, a 4×4 tile's 16
// accumulators would spill every iteration.
//
// Bit-exactness: every output element keeps its own accumulator,
// summed over p in ascending order exactly like the textbook reference,
// with α applied once to the finished sum; packing only relocates
// values. The AVX tile multiplies and adds in separate instructions
// and never fuses (Go on amd64 fuses only an explicit math.FMA), so
// each lane rounds exactly like the scalar accumulator it replaces.
// Padded B lanes of the last panel accumulate into lanes that are
// never written back, so they cannot contaminate real outputs. Row
// i's operation sequence is independent of lo/hi and of which tile or
// rows it shares, preserving the engine's split-anywhere determinism.
var BlockedKernel Kernel = blockedKernel{}

type blockedKernel struct{}

const (
	packMR = 2 // Go tile height (rows of A / C)
	packNR = 4 // tile width (rows of B = columns of C) and panel width
)

func (blockedKernel) Name() string { return "blocked" }

// Per-call scratch for the unpacked entry points, pooled so
// steady-state calls do not allocate. Pool entries are owned
// exclusively between Get and Put, which is what makes concurrent
// pool-worker calls race-free.
var packBPool = sync.Pool{New: func() any { return &PackedB{} }}

func (bk blockedKernel) DgemmNT(alpha float64, a, b *mat.Matrix, beta float64, c *mat.Matrix) {
	bk.DgemmNTRows(alpha, a, b, beta, c, 0, a.Rows)
}

func (bk blockedKernel) DgemmNTRows(alpha float64, a, b *mat.Matrix, beta float64, c *mat.Matrix, lo, hi int) {
	if alpha == 0 || b.Cols == 0 {
		scaleRows(beta, c, lo, hi)
		return
	}
	pb := packBPool.Get().(*PackedB)
	bk.PackB(b, pb)
	bk.DgemmNTRowsPacked(alpha, a, pb, beta, c, lo, hi)
	packBPool.Put(pb)
}

// PackB lays B out as ⌈n/NR⌉ panels of NR interleaved rows, zero-
// padding the last panel so the micro-kernel needs no column edge
// path.
func (bk blockedKernel) PackB(b *mat.Matrix, pb *PackedB) {
	n, k := b.Rows, b.Cols
	np := (n + packNR - 1) / packNR
	buf := pb.grow(np * packNR * k)
	for jp := 0; jp < np; jp++ {
		panel := buf[jp*packNR*k : (jp+1)*packNR*k]
		for r := 0; r < packNR; r++ {
			j := jp*packNR + r
			if j >= n {
				for p := 0; p < k; p++ {
					panel[p*packNR+r] = 0
				}
				continue
			}
			for p, v := range b.Row(j) {
				panel[p*packNR+r] = v
			}
		}
	}
	pb.owner, pb.rows, pb.depth = bk, n, k
}

func (blockedKernel) DgemmNTRowsPacked(alpha float64, a *mat.Matrix, pb *PackedB, beta float64, c *mat.Matrix, lo, hi int) {
	scaleRows(beta, c, lo, hi)
	n, k := pb.rows, pb.depth
	if alpha == 0 || k == 0 || lo == hi || n == 0 {
		return
	}
	microRows(alpha, a, pb, c, ntQuads(alpha, a, pb, c, lo, hi), hi)
}

// microRows is the Go tile path over rows [lo, hi): micro2x4 on row
// pairs, micro1x4 on an odd last row, each across every panel.
func microRows(alpha float64, a *mat.Matrix, pb *PackedB, c *mat.Matrix, lo, hi int) {
	n, k := pb.rows, pb.depth
	np := (n + packNR - 1) / packNR
	i := lo
	for ; i+packMR <= hi; i += packMR {
		a0 := a.Row(i)[:k]
		a1 := a.Row(i + 1)[:k]
		c0 := c.Row(i)
		c1 := c.Row(i + 1)
		for jp := 0; jp < np; jp++ {
			j0 := jp * packNR
			cols := n - j0
			if cols > packNR {
				cols = packNR
			}
			micro2x4(a0, a1, pb.buf[jp*packNR*k:(jp+1)*packNR*k], alpha, c0[j0:], c1[j0:], cols)
		}
	}
	if i < hi {
		a0 := a.Row(i)[:k]
		c0 := c.Row(i)
		for jp := 0; jp < np; jp++ {
			j0 := jp * packNR
			cols := n - j0
			if cols > packNR {
				cols = packNR
			}
			micro1x4(a0, pb.buf[jp*packNR*k:(jp+1)*packNR*k], alpha, c0[j0:], cols)
		}
	}
}

// micro2x4 accumulates the 2×4 register tile c{0,1}[0:cols] +=
// α·(A rows · B panelᵀ) over the full k extent. Eight independent
// scalar accumulators, each summed in ascending p — the reference
// operation order — then written back only for the cols valid columns.
func micro2x4(a0, a1, bp []float64, alpha float64, c0, c1 []float64, cols int) {
	var (
		s00, s01, s02, s03 float64
		s10, s11, s12, s13 float64
	)
	a1 = a1[:len(a0)]
	bp = bp[:packNR*len(a0)]
	bi := 0
	for p, av0 := range a0 {
		av1 := a1[p]
		b0, b1, b2, b3 := bp[bi], bp[bi+1], bp[bi+2], bp[bi+3]
		bi += packNR
		s00 += av0 * b0
		s01 += av0 * b1
		s02 += av0 * b2
		s03 += av0 * b3
		s10 += av1 * b0
		s11 += av1 * b1
		s12 += av1 * b2
		s13 += av1 * b3
	}
	sums0 := [packNR]float64{s00, s01, s02, s03}
	sums1 := [packNR]float64{s10, s11, s12, s13}
	for q := 0; q < cols; q++ {
		c0[q] += alpha * sums0[q]
	}
	for q := 0; q < cols; q++ {
		c1[q] += alpha * sums1[q]
	}
}

// micro1x4 is the single-row edge variant of micro2x4 for odd row
// counts; same accumulation order per element.
func micro1x4(a0, bp []float64, alpha float64, c0 []float64, cols int) {
	var s0, s1, s2, s3 float64
	bp = bp[:packNR*len(a0)]
	bi := 0
	for _, av0 := range a0 {
		s0 += av0 * bp[bi]
		s1 += av0 * bp[bi+1]
		s2 += av0 * bp[bi+2]
		s3 += av0 * bp[bi+3]
		bi += packNR
	}
	sums := [packNR]float64{s0, s1, s2, s3}
	for q := 0; q < cols; q++ {
		c0[q] += alpha * sums[q]
	}
}
