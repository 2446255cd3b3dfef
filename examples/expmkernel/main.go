// Expm kernel demo: the paper's core optimization in isolation. For a
// 61×61 codon rate matrix this program computes P(t) = e^{Qt} with
// the CodeML formulation (Eq. 9, general matrix product, ≈2n³ flops)
// and the SlimCodeML formulation (Eq. 10, symmetric rank-k update,
// ≈n³ flops), verifies they agree to machine precision, and times
// them — including the Eq. 12–13 symmetric conditional-vector kernel
// the paper describes as a further improvement.
//
// Run with: go run ./examples/expmkernel
package main

import (
	"fmt"
	"log"
	"math/rand"
	"time"

	"repro/internal/blas"
	"repro/internal/codon"
	"repro/internal/expm"
	"repro/internal/mat"
)

func main() {
	// A representative codon model: κ = 2, ω = 0.3, random π.
	rng := rand.New(rand.NewSource(1))
	pi := make([]float64, codon.NumSense)
	sum := 0.0
	for i := range pi {
		pi[i] = 0.2 + rng.Float64()
		sum += pi[i]
	}
	for i := range pi {
		pi[i] /= sum
	}
	rate, err := codon.NewRate(codon.Universal, 2.0, 0.3, pi)
	if err != nil {
		log.Fatal(err)
	}

	// One eigendecomposition serves every branch length (§III-A).
	start := time.Now()
	dec, err := expm.Decompose(rate.S, rate.Pi)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("eigendecomposition of A = Π^½SΠ^½ (61×61): %v\n\n", time.Since(start).Round(time.Microsecond))

	ws := dec.NewWorkspace()
	n := dec.N()
	pGemm := mat.New(n, n)
	pSyrk := mat.New(n, n)
	kernel := mat.New(n, n)
	const t = 0.37

	// Correctness: both formulations produce the same matrix.
	dec.PMatrix(t, expm.MethodGEMM, pGemm, ws)
	dec.PMatrix(t, expm.MethodSYRK, pSyrk, ws)
	maxDiff := 0.0
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			d := pGemm.At(i, j) - pSyrk.At(i, j)
			if d < 0 {
				d = -d
			}
			if d > maxDiff {
				maxDiff = d
			}
		}
	}
	fmt.Printf("max |P_gemm − P_syrk| = %.2e (identical to rounding)\n\n", maxDiff)

	// Timing: per-branch P(t) construction.
	const reps = 2000
	timeIt := func(name string, f func()) time.Duration {
		begin := time.Now()
		for i := 0; i < reps; i++ {
			f()
		}
		d := time.Since(begin) / reps
		fmt.Printf("%-42s %10v per branch\n", name, d.Round(time.Nanosecond))
		return d
	}
	dNaive := timeIt("Eq. 9, hand-rolled loops (original CodeML)", func() {
		dec.PMatrixOn(blas.HandRolledKernel, t, expm.MethodGEMM, pGemm, ws)
	})
	dGemm := timeIt("Eq. 9, blocked dgemm (Z = ỸXᵀ, ~2n³)", func() {
		dec.PMatrix(t, expm.MethodGEMM, pGemm, ws)
	})
	dSyrk := timeIt("Eq. 10, dsyrk (Z = YYᵀ, ~n³, SlimCodeML)", func() {
		dec.PMatrix(t, expm.MethodSYRK, pSyrk, ws)
	})
	fmt.Printf("\nspeedup of SYRK over blocked GEMM: %.2f× (flop argument predicts ~2×)\n", float64(dGemm)/float64(dSyrk))
	fmt.Printf("speedup of SYRK over naive CodeML loops: %.2f×\n\n", float64(dNaive)/float64(dSyrk))

	// The Eq. 12–13 conditional-vector path: apply e^{Qt} to per-site
	// vectors through the symmetric kernel vs a general mat-vec on P.
	dec.SymKernel(t, kernel, ws)
	w := make([]float64, n)
	for i := range w {
		w[i] = rng.Float64()
	}
	out := make([]float64, n)
	scratch := make([]float64, n)
	const sites = 20000
	begin := time.Now()
	for i := 0; i < sites; i++ {
		blas.Dgemv(false, 1, pSyrk, w, 0, out)
	}
	dGemv := time.Since(begin) / sites
	begin = time.Now()
	for i := 0; i < sites; i++ {
		dec.ApplySym(kernel, w, out, scratch)
	}
	dSymv := time.Since(begin) / sites
	fmt.Printf("per-site conditional vector update (Eq. 12 vs general):\n")
	fmt.Printf("%-42s %10v per site\n", "dgemv on P (CodeML / SlimCodeML 2012)", dGemv.Round(time.Nanosecond))
	fmt.Printf("%-42s %10v per site\n", "dsymv on M = ŶŶᵀ (Eq. 12, half traffic)", dSymv.Round(time.Nanosecond))
	fmt.Printf("speedup: %.2f×\n", float64(dGemv)/float64(dSymv))
}
