// Benchmarks regenerating the paper's evaluation section, one bench
// per table/figure (this header is the per-experiment index; the
// engine design is in docs/ARCHITECTURE.md):
//
//	E1  BenchmarkTable2_DatasetShapes      dataset generation (Table II)
//	E2  TestAccuracyHarness / cmd/tables   relative lnL difference (§IV-1)
//	E3  BenchmarkTable3/*                  runtimes + iterations (Table III)
//	E4  BenchmarkTable4_Speedup/*          speedup flavors (Table IV)
//	E5  BenchmarkFig3/*                    speedup vs species (Figure 3)
//	E6  BenchmarkExpm/*                    Eq. 9 vs Eq. 10 kernel ablation
//	E7  BenchmarkCondVec/*                 Eq. 12 conditional-vector ablation
//
// plus design-choice ablations (docs/ARCHITECTURE.md, tiers 1-2):
//
//	BenchmarkLikelihoodEval/*       one pruning pass per engine strategy
//	BenchmarkBranchUpdate/*         O(depth) path update vs full pruning
//	BenchmarkDecompositionReuse/*   cached eigendecomposition vs per-branch Padé
//
// Full-scale regeneration (paper-size iteration counts) is
// cmd/tables -full; these benches run the same harness with capped
// iterations, and for the two largest workloads with documented
// scaled shapes, so `go test -bench=.` finishes in minutes. Within a
// bench the baseline/slim comparison is the paper's comparison.
package main

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/align"
	"repro/internal/bench"
	"repro/internal/blas"
	"repro/internal/bsm"
	"repro/internal/codon"
	"repro/internal/core"
	"repro/internal/expm"
	"repro/internal/lik"
	"repro/internal/mat"
	"repro/internal/sim"
)

// benchCfg caps optimizer iterations so one H0+H1 run is seconds, not
// hours. Per-iteration speedups (Table IV rows 4-6) are unaffected.
func benchCfg() bench.Config { return bench.Config{MaxIterations: 2, Seed: 1} }

// benchPreset returns the Table II preset, scaled down where the full
// shape would make a default bench run take tens of minutes: dataset
// ii drops from 5004 to 600 codons and dataset iv from 95 to 40
// species. cmd/tables runs the full shapes.
func benchPreset(b *testing.B, id string) (sim.Preset, int) {
	b.Helper()
	p, err := sim.PresetByID(id)
	if err != nil {
		b.Fatal(err)
	}
	species := p.Species
	switch id {
	case "ii":
		p.Codons = 600
	case "iv":
		species = 40
	}
	return p, species
}

// E1 — Table II: dataset generation at the paper's shapes.
func BenchmarkTable2_DatasetShapes(b *testing.B) {
	for _, preset := range sim.TableII {
		b.Run("dataset_"+preset.ID, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ds, err := preset.Generate(int64(i + 1))
				if err != nil {
					b.Fatal(err)
				}
				if ds.Alignment.NumSeqs() != preset.Species {
					b.Fatal("wrong shape")
				}
			}
		})
	}
}

// E3 — Table III: full H0+H1 runs per dataset and engine. The
// iterations-per-run metric is reported alongside time.
func BenchmarkTable3(b *testing.B) {
	for _, id := range []string{"i", "ii", "iii", "iv"} {
		preset, species := benchPreset(b, id)
		ds, err := preset.GenerateWithSpecies(1, species)
		if err != nil {
			b.Fatal(err)
		}
		for _, kind := range []core.EngineKind{core.EngineBaseline, core.EngineSlim} {
			b.Run(fmt.Sprintf("dataset_%s/%s", id, kind), func(b *testing.B) {
				iters := 0
				for i := 0; i < b.N; i++ {
					res, err := bench.RunEngine(ds, kind, benchCfg())
					if err != nil {
						b.Fatal(err)
					}
					iters += res.Iterations
				}
				b.ReportMetric(float64(iters)/float64(b.N), "iterations/run")
			})
		}
	}
}

// E4 — Table IV: the combined speedup on dataset i, measured inside
// one benchmark so both engines face identical data and caps.
func BenchmarkTable4_Speedup(b *testing.B) {
	preset, species := benchPreset(b, "i")
	for i := 0; i < b.N; i++ {
		pair, err := bench.RunPairWithSpecies(preset, species, benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		sp := bench.ComputeSpeedups(pair)
		b.ReportMetric(sp.Combined, "combined-speedup")
		b.ReportMetric(sp.PerIterBoth, "per-iter-speedup")
	}
}

// E5 — Figure 3: speedup at increasing species counts on the dataset
// iv family. The full 15–95 sweep is cmd/tables -fig3.
func BenchmarkFig3(b *testing.B) {
	preset, _ := benchPreset(b, "iv")
	for _, species := range []int{15, 25, 40} {
		b.Run(fmt.Sprintf("species_%d", species), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				pair, err := bench.RunPairWithSpecies(preset, species, benchCfg())
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(bench.ComputeSpeedups(pair).Combined, "combined-speedup")
			}
		})
	}
}

// --- Kernel-level ablations -----------------------------------------

func kernelFixture(b *testing.B) *expm.Decomposition {
	b.Helper()
	pi := codon.UniformFrequencies(codon.Universal)
	rate, err := codon.NewRate(codon.Universal, 2, 0.3, pi)
	if err != nil {
		b.Fatal(err)
	}
	d, err := expm.Decompose(rate.S, rate.Pi)
	if err != nil {
		b.Fatal(err)
	}
	return d
}

// E6 — the paper's Eq. 9 vs Eq. 10 contrast at n = 61.
func BenchmarkExpm(b *testing.B) {
	d := kernelFixture(b)
	ws := d.NewWorkspace()
	p := mat.New(d.N(), d.N())
	// naive-gemm is Eq. 9 on the hand-rolled kernel, CodeML's textbook
	// loops; gemm and syrk run on the blocked kernel.
	b.Run("naive-gemm", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			d.PMatrixOn(blas.HandRolledKernel, 0.37, expm.MethodGEMM, p, ws)
		}
	})
	for _, m := range []expm.Method{expm.MethodGEMM, expm.MethodSYRK} {
		b.Run(m.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				d.PMatrix(0.37, m, p, ws)
			}
		})
	}
	b.Run("symkernel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			d.SymKernel(0.37, p, ws)
		}
	})
	b.Run("eigendecomposition", func(b *testing.B) {
		pi := codon.UniformFrequencies(codon.Universal)
		rate, err := codon.NewRate(codon.Universal, 2, 0.3, pi)
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < b.N; i++ {
			if _, err := expm.Decompose(rate.S, rate.Pi); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// E7 — the conditional-vector strategies of §III-B / Eq. 12: per-site
// general mat-vec, per-site symmetric kernel, and BLAS-3 bundling,
// measured on a realistic pattern block.
func BenchmarkCondVec(b *testing.B) {
	d := kernelFixture(b)
	ws := d.NewWorkspace()
	n := d.N()
	const npat = 256
	p := mat.New(n, n)
	kernel := mat.New(n, n)
	d.PMatrix(0.37, expm.MethodSYRK, p, ws)
	d.SymKernel(0.37, kernel, ws)
	partial := mat.New(npat, n)
	for i := range partial.Data {
		partial.Data[i] = 0.5
	}
	dst := mat.New(npat, n)
	scratch := make([]float64, n)

	// The hand-rolled kernel's one-row product is the textbook mat-vec.
	b.Run("persite-naive-gemv", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for pt := 0; pt < npat; pt++ {
				blas.HandRolledKernel.DgemmNTRows(1, partial, p, 0, dst, pt, pt+1)
			}
		}
	})
	b.Run("persite-gemv", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for pt := 0; pt < npat; pt++ {
				blas.Dgemv(false, 1, p, partial.Row(pt), 0, dst.Row(pt))
			}
		}
	})
	b.Run("persite-symv", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for pt := 0; pt < npat; pt++ {
				d.ApplySym(kernel, partial.Row(pt), dst.Row(pt), scratch)
			}
		}
	})
	b.Run("bundled-gemm", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			blas.Dgemm(false, true, 1, partial, p, 0, dst)
		}
	})
}

// BenchmarkLikelihoodEval times one full pruning pass per engine
// strategy on the dataset iii shape — the per-iteration building
// block behind Tables III/IV.
func BenchmarkLikelihoodEval(b *testing.B) {
	preset, err := sim.PresetByID("iii")
	if err != nil {
		b.Fatal(err)
	}
	ds, err := preset.Generate(1)
	if err != nil {
		b.Fatal(err)
	}
	ca, err := align.EncodeCodons(ds.Alignment, codon.Universal)
	if err != nil {
		b.Fatal(err)
	}
	pats := align.Compress(ca)
	pi, err := codon.F61(codon.Universal, pats.CountCodonsCompressed())
	if err != nil {
		b.Fatal(err)
	}
	model, err := bsm.New(codon.Universal, bsm.H1, sim.TrueParams(), pi)
	if err != nil {
		b.Fatal(err)
	}
	configs := []struct {
		name string
		cfg  lik.Config
	}{
		{"baseline-naive", core.EngineBaseline.LikConfig()},
		{"slim-syrk-gemv", lik.Config{PMethod: expm.MethodSYRK, Apply: lik.ApplyPerSiteGEMV}},
		{"slim-syrk-symv", lik.Config{PMethod: expm.MethodSYRK, Apply: lik.ApplyPerSiteSYMV}},
		{"slim-syrk-bundled", lik.Config{PMethod: expm.MethodSYRK, Apply: lik.ApplyBundled}},
	}
	for _, tc := range configs {
		b.Run(tc.name, func(b *testing.B) {
			eng, err := lik.New(ds.Tree, pats, ca.Names, tc.cfg)
			if err != nil {
				b.Fatal(err)
			}
			if err := eng.SetModel(model); err != nil {
				b.Fatal(err)
			}
			lens := eng.BranchLengths()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Touch one branch so transition caches rebuild the
				// way an optimizer step would.
				lens[0] *= 1.000001
				if err := eng.SetBranchLengths(lens); err != nil {
					b.Fatal(err)
				}
				_ = eng.LogLikelihood()
			}
		})
	}
}

// TestAccuracyHarness exercises the E2 accuracy computation end to end
// on the smallest dataset (quick caps): the harness must produce
// finite, small relative differences and consistent speedup rows.
func TestAccuracyHarness(t *testing.T) {
	if testing.Short() {
		t.Skip("harness run in -short mode")
	}
	preset, err := sim.PresetByID("i")
	if err != nil {
		t.Fatal(err)
	}
	preset.Codons = 60 // keep the test quick; shape preserved
	pair, err := bench.RunPair(preset, bench.Config{MaxIterations: 30, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	acc := bench.ComputeAccuracy(pair)
	if !(acc.DH0 >= 0) || !(acc.DH1 >= 0) {
		t.Fatalf("accuracy not computed: %+v", acc)
	}
	// Both engines optimize the same surface; capped runs may stop at
	// slightly different points but must be close in relative terms.
	if acc.DH0 > 1e-2 || acc.DH1 > 1e-2 {
		t.Fatalf("engines diverged: %+v", acc)
	}
	sp := bench.ComputeSpeedups(pair)
	if sp.Combined <= 0 || sp.PerIterBoth <= 0 {
		t.Fatalf("speedups not computed: %+v", sp)
	}
}

// BenchmarkParallelEngine contrasts the execution strategies on the
// dataset iii shape: serial and the block-pool engine over
// (class × pattern-block) tiles at 1/2/4/8 workers. All strategies compute bit-identical log-likelihoods; only
// the scheduling differs. The README records the measured table.
func BenchmarkParallelEngine(b *testing.B) {
	fx, err := bench.NewEvalFixture("iii", 0, 1)
	if err != nil {
		b.Fatal(err)
	}
	base := core.EngineSlimBundled.LikConfig()
	run := func(b *testing.B, cfg lik.Config) {
		eng, err := fx.NewEngine(cfg)
		if err != nil {
			b.Fatal(err)
		}
		defer eng.Close()
		lens := eng.BranchLengths()
		branch := eng.BranchIDs()[0]
		eng.LogLikelihood()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			lens[branch] *= 1.0000001
			if err := eng.SetBranchLengths(lens); err != nil {
				b.Fatal(err)
			}
			_ = eng.LogLikelihood()
		}
	}
	b.Run("serial", func(b *testing.B) { run(b, base) })
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("block-pool-%dw", workers), func(b *testing.B) {
			cfg := base
			cfg.Workers = workers
			run(b, cfg)
		})
	}
}

// BenchmarkRefreshTransitions times the transition-matrix phase — the
// rebuild of every branch's P(t) products after a full invalidation,
// exactly what the optimizer's full-gradient re-installs trigger —
// serially and on the block pool, at increasing branch counts (the
// dataset iv family at 8/16/32 species; the per-run "branches" metric
// reports the exact count). Since
// PR 3 this phase runs as per-(branch, slot) tasks on worker-indexed
// expm workspaces, so it parallelizes like the pruning tiles; the
// rebuilt matrices are bit-identical in every row. The README records
// the measured table with the machine's GOMAXPROCS.
func BenchmarkRefreshTransitions(b *testing.B) {
	for _, species := range []int{8, 16, 32} {
		fx, err := bench.NewEvalFixture("iv", species, 1)
		if err != nil {
			b.Fatal(err)
		}
		base := core.EngineSlim.LikConfig()
		run := func(b *testing.B, cfg lik.Config) {
			eng, err := fx.NewEngine(cfg)
			if err != nil {
				b.Fatal(err)
			}
			defer eng.Close()
			lens := eng.BranchLengths()
			branches := eng.BranchIDs()
			eng.RefreshTransitions() // warm workspaces outside the timed region
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, v := range branches {
					lens[v] *= 1.0000001
				}
				if err := eng.SetBranchLengths(lens); err != nil {
					b.Fatal(err)
				}
				eng.RefreshTransitions()
			}
			b.ReportMetric(float64(len(branches)), "branches")
		}
		b.Run(fmt.Sprintf("species_%d/serial", species), func(b *testing.B) { run(b, base) })
		for _, workers := range []int{2, 4, 8} {
			b.Run(fmt.Sprintf("species_%d/block-pool-%dw", species, workers), func(b *testing.B) {
				cfg := base
				cfg.Workers = workers
				run(b, cfg)
			})
		}
	}
}

// BenchmarkKernelSweep times both GEMM kernels (bench.SweepKernels)
// on the NT shapes the likelihood computation issues (see
// bench.KernelShapes): the Eq. 9 transition build and the bundled
// pattern-block apply, each through the plain and the pre-packed entry
// point. The kernels are bit-exact (conformance suite), so the
// contrast is pure speed; the README records the per-dimension table.
func BenchmarkKernelSweep(b *testing.B) {
	for _, sh := range bench.KernelShapes {
		m, n, k := sh[0], sh[1], sh[2]
		a := mat.New(m, k)
		bm := mat.New(n, k)
		c := mat.New(m, n)
		for i := range a.Data {
			a.Data[i] = float64(i%17) * 0.25
		}
		for i := range bm.Data {
			bm.Data[i] = float64(i%13) * 0.5
		}
		for _, kr := range bench.SweepKernels {
			name := fmt.Sprintf("%dx%dx%d/%s", m, n, k, kr.Name())
			b.Run(name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					kr.DgemmNT(1, a, bm, 0, c)
				}
			})
			b.Run(name+"-packed", func(b *testing.B) {
				var pb blas.PackedB
				kr.PackB(bm, &pb)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					kr.DgemmNTRowsPacked(1, a, &pb, 0, c, 0, m)
				}
			})
		}
	}
}

// BenchmarkBatchDriver measures the multi-gene batch driver against
// running the same genes back-to-back: shared workers, shared
// eigendecomposition cache, pooled frequencies.
func BenchmarkBatchDriver(b *testing.B) {
	const nGenes = 4
	genes := make([]core.Gene, nGenes)
	for i := range genes {
		tree, err := sim.RandomTree(sim.TreeConfig{Species: 6, MeanBranchLength: 0.15, Seed: int64(20 + i)})
		if err != nil {
			b.Fatal(err)
		}
		aln, err := sim.Simulate(tree, codon.Universal, sim.SeqConfig{
			Sites:  60,
			Params: sim.TrueParams(),
			Seed:   int64(70 + i),
		})
		if err != nil {
			b.Fatal(err)
		}
		genes[i] = core.Gene{Name: fmt.Sprintf("g%d", i), Alignment: aln, Tree: tree}
	}
	opts := core.Options{Engine: core.EngineSlim, MaxIterations: 2, Seed: 1}

	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, g := range genes {
				an, err := core.NewAnalysis(g.Alignment, g.Tree, opts)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := an.Run(); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("batch", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var col core.CollectSink
			res, err := core.RunBatchStream(context.Background(), core.NewSliceSource(genes), &col, core.StreamOptions{
				BatchOptions: core.BatchOptions{Options: opts, ShareFrequencies: true},
			})
			if err != nil {
				b.Fatal(err)
			}
			if res.Failed != 0 {
				b.Fatal("batch gene failed")
			}
		}
	})
}

// BenchmarkBranchUpdate quantifies the O(depth) single-branch path
// update against a full pruning pass — the design choice that makes
// numerical branch-length gradients affordable (docs/ARCHITECTURE.md,
// "Tier 1 — serial engine").
func BenchmarkBranchUpdate(b *testing.B) {
	preset, err := sim.PresetByID("iii")
	if err != nil {
		b.Fatal(err)
	}
	ds, err := preset.Generate(1)
	if err != nil {
		b.Fatal(err)
	}
	ca, err := align.EncodeCodons(ds.Alignment, codon.Universal)
	if err != nil {
		b.Fatal(err)
	}
	pats := align.Compress(ca)
	pi, err := codon.F61(codon.Universal, pats.CountCodonsCompressed())
	if err != nil {
		b.Fatal(err)
	}
	model, err := bsm.New(codon.Universal, bsm.H1, sim.TrueParams(), pi)
	if err != nil {
		b.Fatal(err)
	}
	eng, err := lik.New(ds.Tree, pats, ca.Names, core.EngineSlim.LikConfig())
	if err != nil {
		b.Fatal(err)
	}
	if err := eng.SetModel(model); err != nil {
		b.Fatal(err)
	}
	eng.LogLikelihood()
	branch := eng.BranchIDs()[0]
	lens := eng.BranchLengths()

	b.Run("full-pruning", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			lens[branch] *= 1.0000001
			if err := eng.SetBranchLengths(lens); err != nil {
				b.Fatal(err)
			}
			_ = eng.LogLikelihood()
		}
	})
	b.Run("path-update", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = eng.BranchLogLikelihood(branch, lens[branch]*1.0000001)
		}
	})
}

// BenchmarkDecompositionReuse contrasts the paper's §III-A design —
// eigendecompose once per Q, then one cheap product per branch length
// — against recomputing the exponential from scratch per branch
// (Padé scaling-and-squaring).
func BenchmarkDecompositionReuse(b *testing.B) {
	d := kernelFixture(b)
	pi := codon.UniformFrequencies(codon.Universal)
	rate, err := codon.NewRate(codon.Universal, 2, 0.3, pi)
	if err != nil {
		b.Fatal(err)
	}
	ws := d.NewWorkspace()
	p := mat.New(d.N(), d.N())
	lens := []float64{0.01, 0.05, 0.1, 0.2, 0.4, 0.8, 1.2, 2.0}

	b.Run("eigen-cached-syrk", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, t := range lens {
				d.PMatrix(t, expm.MethodSYRK, p, ws)
			}
		}
	})
	b.Run("pade-per-branch", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, t := range lens {
				_ = expm.PadeExpm(rate.Q, t)
			}
		}
	})
}
