package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/align"
	"repro/internal/blas"
	"repro/internal/bsm"
	"repro/internal/codon"
	"repro/internal/core"
	"repro/internal/expm"
	"repro/internal/lik"
	"repro/internal/manifest"
	"repro/internal/mat"
	"repro/internal/sim"
)

// perLayer is the catalogue of per-layer metrics, each with its unit.
// A traced run emits every one on every workload; a layer the
// workload's path does not reach reads 0 (METRICS.md maps each metric
// to the end-to-end metric and workload it should move).
var perLayer = [][2]string{
	{"trace_overhead", "ratio"},
	{"align.read_s", "s"},
	{"align.encode_s", "s"},
	{"align.patterns", "count"},
	{"lapack.dsyev_s", "s"},
	{"lik.decompositions", "count"},
	{"lik.decomp_hit_ratio", "ratio"},
	{"expm.pmatrix_syrk_s", "s"},
	{"blas.gemv_61_ns", "ns"},
	{"blas.syrk_61_gflops", "GFLOP/s"},
	{"blas.gemm_tile_gflops", "GFLOP/s"},
	{"blas.gemm_flop_per_byte", "flop/B"},
	{"lik.set_model_s", "s"},
	{"lik.refresh_transitions_s", "s"},
	{"lik.branch_eval_s", "s"},
	{"lik.gradient_walks", "count"},
	{"lik.full_eval_s", "s"},
	{"lik.pool_parallel_eff", "ratio"},
	{"core.fit_h0_s", "s"},
	{"core.fit_h1_s", "s"},
	{"core.iterations", "count"},
	{"core.func_evals", "count"},
	{"core.converged_ratio", "ratio"},
	{"core.engine_share", "ratio"},
	{"core.source_next_s", "s"},
	{"checkpoint.sink_write_s", "s"},
	{"checkpoint.ledger_bytes", "B"},
	{"persistcache.replay_ratio", "ratio"},
	{"persistcache.store_bytes", "B"},
	{"serve.submit_s", "s"},
	{"serve.follow_first_row_s", "s"},
	{"serve.job_s", "s"},
	{"serve.status_s", "s"},
	{"serve.tier4_overhead", "ratio"},
	{"fanout.run_s", "s"},
	{"fanout.resubmits", "count"},
	{"fanout.submit_to_append_s", "s"},
	{"fanout.append_gap_s", "s"},
	{"fanout.tier5_overhead", "ratio"},
}

// endToEndUnits is the catalogue of end-to-end metrics.
var endToEndUnits = [][2]string{
	{"genes_per_s", "genes/s"},
	{"cpu_s_per_gene", "s"},
	{"lnl_ratio_to_truth", "ratio"},
	{"gene_ok_rate", "ratio"},
	{"setup_s", "s"},
	{"peak_heap_mb", "MB"},
}

// metricSet collects a run's numbers, each under its catalogued unit.
type metricSet map[string]metric

func (s metricSet) set(name string, v float64) {
	for _, cat := range [][][2]string{endToEndUnits, perLayer} {
		for _, m := range cat {
			if m[0] == name {
				s[name] = metric{v, m[1]}
				return
			}
		}
	}
	panic("perfbench: uncatalogued metric " + name)
}

// offPath records layers this workload's path does not reach.
func (s metricSet) offPath(names ...string) {
	for _, n := range names {
		s.set(n, 0)
	}
}

// complete returns the metrics, failing unless they cover the
// catalogue.
func (s metricSet) complete(cat [][2]string) (map[string]metric, error) {
	for _, m := range cat {
		if _, ok := s[m[0]]; !ok {
			return nil, fmt.Errorf("run did not measure %s", m[0])
		}
	}
	return s, nil
}

// Layers off some workload's path: fleet-rescan fits nothing, and the
// fitted workloads do not run through the daemons.
var (
	fitLayers  = []string{"core.fit_h0_s", "core.fit_h1_s", "core.iterations", "core.func_evals", "core.converged_ratio", "core.engine_share"}
	likLayers  = []string{"lik.set_model_s", "lik.refresh_transitions_s", "lik.branch_eval_s", "lik.gradient_walks", "lik.full_eval_s", "lik.pool_parallel_eff"}
	tierLayers = []string{"serve.submit_s", "serve.follow_first_row_s", "serve.job_s", "serve.status_s", "serve.tier4_overhead",
		"fanout.run_s", "fanout.resubmits", "fanout.submit_to_append_s", "fanout.append_gap_s", "fanout.tier5_overhead"}
)

// secondsPerCall is the median over reps of the mean time of inner
// back-to-back calls of f.
func secondsPerCall(reps, inner int, f func()) float64 {
	ts := make([]float64, reps)
	for r := range ts {
		t0 := time.Now()
		for i := 0; i < inner; i++ {
			f()
		}
		ts[r] = time.Since(t0).Seconds() / float64(inner)
	}
	return median(ts)
}

// stateSize is the universal code's sense-codon count.
const stateSize = 61

// kernelLayers measures the single kernels on the engine's shapes: one
// 61×61 eigendecomposition, one SYRK P(t) build, one 61×61 GEMV and
// SYRK, and a packed 256×61×61 GEMM tile on the active kernel.
func kernelLayers(out metricSet) error {
	rng := rand.New(rand.NewSource(1))
	m, err := bsm.New(codon.Universal, bsm.H1, sim.TrueParams(), sim.RandomPi(stateSize, 5, rng))
	if err != nil {
		return err
	}
	rate := m.DistinctRates()[0]
	var d *expm.Decomposition
	out.set("lapack.dsyev_s", secondsPerCall(9, 1, func() { d, err = expm.Decompose(rate.S, rate.Pi) }))
	if err != nil {
		return err
	}
	p, ws := mat.New(stateSize, stateSize), d.NewWorkspace()
	out.set("expm.pmatrix_syrk_s", secondsPerCall(9, 20, func() { d.PMatrix(0.1, expm.MethodSYRK, p, ws) }))

	a := randomMatrix(rng, stateSize, stateSize)
	x, y := make([]float64, stateSize), make([]float64, stateSize)
	for i := range x {
		x[i] = rng.Float64()
	}
	out.set("blas.gemv_61_ns", 1e9*secondsPerCall(9, 2000, func() { blas.Dgemv(false, 1, a, x, 0, y) }))
	c := mat.New(stateSize, stateSize)
	syrkFlops := float64(stateSize * (stateSize + 1) * stateSize)
	out.set("blas.syrk_61_gflops", syrkFlops/secondsPerCall(9, 200, func() { blas.Dsyrk(false, 1, a, 0, c) })/1e9)

	const rows = 256
	ta, tc := randomMatrix(rng, rows, stateSize), mat.New(rows, stateSize)
	pb := blas.PackNT(a, nil)
	gemmFlops := 2.0 * rows * stateSize * stateSize
	out.set("blas.gemm_tile_gflops", gemmFlops/secondsPerCall(9, 50, func() { blas.DgemmNTPacked(1, ta, pb, 0, tc) })/1e9)
	// Computed, not measured: the tile's flops over the bytes of A, B
	// and C (read and written) at 8 bytes each.
	out.set("blas.gemm_flop_per_byte", gemmFlops/(8*(rows*stateSize+stateSize*stateSize+2*rows*stateSize)))
	return nil
}

func randomMatrix(rng *rand.Rand, r, c int) *mat.Matrix {
	m := mat.New(r, c)
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			m.Set(i, j, rng.Float64())
		}
	}
	return m
}

// alignLayers times reading and encoding each gene's alignment.
func alignLayers(out metricSet, entries []manifest.Entry) error {
	var read, encode, pats []float64
	for _, e := range entries {
		t0 := time.Now()
		a, err := align.ReadFile(e.AlignPath, align.FormatAuto)
		if err != nil {
			return err
		}
		t1 := time.Now()
		g := &core.Gene{Name: e.Name, Alignment: a}
		p, _, err := g.Patterns(codon.Universal)
		if err != nil {
			return err
		}
		read = append(read, t1.Sub(t0).Seconds())
		encode = append(encode, time.Since(t1).Seconds())
		pats = append(pats, float64(p.NumPatterns()))
	}
	out.set("align.read_s", mean(read))
	out.set("align.encode_s", mean(encode))
	out.set("align.patterns", mean(pats))
	return nil
}

// likLayerCalls times the engine's calls on a benchmark-owned
// lik.New engine for one gene, with the gene's fitted H1 model and
// branch lengths installed.
func likLayerCalls(out metricSet, w workload, e manifest.Entry, fit *core.FitResult) error {
	g, err := loadGene(e)
	if err != nil {
		return err
	}
	an, err := core.NewAnalysis(g.Alignment, g.Tree, fitOptions(w))
	if err != nil {
		return err
	}
	pi := an.Pi()
	an.Close()
	pats, names, err := g.Patterns(codon.Universal)
	if err != nil {
		return err
	}
	model, err := bsm.New(codon.Universal, bsm.H1, fit.Params, pi)
	if err != nil {
		return err
	}
	engine := func(workers int) (*lik.Engine, error) {
		cfg := w.kind().LikConfig()
		cfg.Workers = workers
		eng, err := lik.New(g.Tree, pats, names, cfg)
		if err != nil {
			return nil, err
		}
		if err := eng.SetModel(model); err != nil {
			eng.Close()
			return nil, err
		}
		if err := eng.SetBranchLengths(fit.BranchLengths); err != nil {
			eng.Close()
			return nil, err
		}
		eng.LogLikelihood()
		return eng, nil
	}
	one, err := engine(1)
	if err != nil {
		return err
	}
	defer one.Close()
	eng, err := engine(poolWorkers)
	if err != nil {
		return err
	}
	defer eng.Close()

	out.set("lik.set_model_s", secondsPerCall(5, 1, func() { err = eng.SetModel(model) }))
	if err != nil {
		return err
	}
	lens := fit.BranchLengths
	scaled := make([]float64, len(lens))
	flip := 0
	out.set("lik.refresh_transitions_s", secondsPerCall(7, 1, func() {
		// Alternate two length sets, so every branch is dirty.
		flip ^= 1
		for i, t := range lens {
			scaled[i] = t * (1 + 1e-6*float64(flip))
		}
		err = eng.SetBranchLengths(scaled)
		eng.RefreshTransitions()
	}))
	if err != nil {
		return err
	}
	full := func(e *lik.Engine) func() { return func() { e.LogLikelihood() } }
	out.set("lik.full_eval_s", secondsPerCall(7, 3, full(eng)))
	ids := eng.BranchIDs()
	out.set("lik.branch_eval_s", secondsPerCall(7, 1, func() {
		for _, v := range ids {
			eng.BranchLogLikelihood(v, scaled[v]*1.01)
		}
	})/float64(len(ids)))
	// Computed: a central-difference gradient walks every branch twice.
	out.set("lik.gradient_walks", float64(2*len(ids)))
	out.set("lik.pool_parallel_eff", secondsPerCall(7, 3, full(one))/(2*secondsPerCall(7, 3, full(eng))))
	return nil
}
