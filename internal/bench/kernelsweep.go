package bench

import (
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/blas"
	"repro/internal/mat"
)

// KernelShapes are the NT product shapes the kernel sweep times — the
// shapes the likelihood computation actually issues. 61×61×61 is the
// Eq. 9 transition build (Ỹ·Xᵀ on the codon space); 64×61×61 is the
// same with the row count on a register-tile boundary; 256×61×61 is
// one bundled pattern-block apply (a 256-pattern tile pushed through a
// 61×61 transition matrix); 8×61×61 is the ragged tail block.
var KernelShapes = [][3]int{
	{61, 61, 61},
	{64, 61, 61},
	{256, 61, 61},
	{8, 61, 61},
}

// SweepKernels are the kernels the sweep times: the two that ship,
// the baseline engine's hand-rolled one first, so speedups are taken
// against CodeML's textbook loops — the paper's Table IV contrast.
var SweepKernels = []blas.Kernel{blas.HandRolledKernel, blas.BlockedKernel}

// KernelTiming is one kernel's ns/op on one shape, for the plain and
// the pre-packed entry points.
type KernelTiming struct {
	Kernel   string
	NsPerOp  int64
	PackedNs int64
	// SpeedupVsHandRolled is hand-rolled ns / this kernel's ns on the
	// plain entry point; the packed column shows what pack-once reuse
	// adds on top.
	SpeedupVsHandRolled float64
}

// KernelShapeResult is every sweep kernel timed on one shape.
type KernelShapeResult struct {
	M, N, K int
	Timings []KernelTiming
}

// KernelSweep is the per-dimension hand-rolled-vs-blocked comparison
// the README and the benchmark snapshot record. Both kernels compute
// bit-identical results (the conformance suite enforces it); the sweep
// measures pure speed.
type KernelSweep struct {
	Shapes []KernelShapeResult
}

// timeNT returns the mean ns/op of fn over iters calls after one
// untimed warm-up.
func timeNT(iters int, fn func()) int64 {
	fn()
	start := time.Now()
	for i := 0; i < iters; i++ {
		fn()
	}
	return time.Since(start).Nanoseconds() / int64(iters)
}

// RunKernelSweep times SweepKernels on the given shapes
// (nil selects KernelShapes) with iters timed products per point.
func RunKernelSweep(shapes [][3]int, iters int) *KernelSweep {
	if shapes == nil {
		shapes = KernelShapes
	}
	if iters < 1 {
		iters = 1
	}
	rng := rand.New(rand.NewSource(42))
	out := &KernelSweep{}
	for _, sh := range shapes {
		m, n, k := sh[0], sh[1], sh[2]
		a := mat.New(m, k)
		b := mat.New(n, k)
		c := mat.New(m, n)
		for i := range a.Data {
			a.Data[i] = rng.Float64()
		}
		for i := range b.Data {
			b.Data[i] = rng.Float64()
		}
		res := KernelShapeResult{M: m, N: n, K: k}
		var handRolledNs int64
		for _, kr := range SweepKernels {
			t := KernelTiming{Kernel: kr.Name()}
			t.NsPerOp = timeNT(iters, func() { kr.DgemmNT(1, a, b, 0, c) })
			var pb blas.PackedB
			kr.PackB(b, &pb)
			t.PackedNs = timeNT(iters, func() { kr.DgemmNTRowsPacked(1, a, &pb, 0, c, 0, m) })
			if kr == blas.HandRolledKernel {
				handRolledNs = t.NsPerOp
			}
			if handRolledNs > 0 && t.NsPerOp > 0 {
				t.SpeedupVsHandRolled = float64(handRolledNs) / float64(t.NsPerOp)
			}
			res.Timings = append(res.Timings, t)
		}
		out.Shapes = append(out.Shapes, res)
	}
	return out
}

// PrintKernelSweep writes the sweep as the per-dimension table the
// repository README records, GOMAXPROCS in the header like the other
// sweep tables (kernel products are single-threaded either way — the
// engine parallelizes across tiles, not inside one product).
func PrintKernelSweep(w io.Writer, s *KernelSweep) {
	fmt.Fprintf(w, "GEMM kernels — C ← A·Bᵀ ns/op per shape, plain and pre-packed B (GOMAXPROCS=%d)\n", runtime.GOMAXPROCS(0))
	fmt.Fprintf(w, "%-14s %-11s %12s %12s %15s\n", "m×n×k", "kernel", "plain", "packed", "vs hand-rolled")
	for _, sh := range s.Shapes {
		dims := fmt.Sprintf("%d×%d×%d", sh.M, sh.N, sh.K)
		for _, t := range sh.Timings {
			fmt.Fprintf(w, "%-14s %-11s %12d %12d %15.2f\n",
				dims, t.Kernel, t.NsPerOp, t.PackedNs, t.SpeedupVsHandRolled)
			dims = ""
		}
	}
}
