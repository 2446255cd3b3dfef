// Package core is the top of the SlimCodeML reproduction: it assembles
// alignment, tree, codon model, likelihood engine and optimizer into
// the positive-selection test the paper benchmarks — maximum
// likelihood fits of branch-site model A under H0 (ω2 = 1) and H1
// (ω2 > 1) followed by the likelihood ratio test and empirical-Bayes
// site identification.
//
// Two engine configurations reproduce the paper's comparison:
//
//   - EngineBaseline mirrors original CodeML v4.4c: the Eq. 9 matrix
//     exponential (general Z = Ỹ Xᵀ) and the per-site mat-vecs both
//     on the hand-rolled kernel's textbook loops, forward-difference
//     gradients and a halving line search (PAML ming2 style).
//   - EngineSlim is SlimCodeML as evaluated in the paper: the Eq. 10
//     dsyrk exponential with blocked kernels and per-site dgemv.
//
// Two further configurations implement the paper's stated next steps:
//
//   - EngineSlimSym adds the Eq. 12–13 symmetric conditional-vector
//     kernel ("we became aware that a further improvement is
//     possible");
//   - EngineSlimBundled adds BLAS-3 bundling of all sites into one
//     matrix product per branch (§III-B / rules of thumb).
//
// # Execution tiers
//
// Orthogonally to the engine kind, work is scheduled at one of three
// tiers, each subsuming the one below:
//
//   - Serial engine: one Analysis, one goroutine (Options.Workers = 0).
//     The reference arithmetic.
//   - Block-pool engine: one Analysis whose likelihood work runs on a
//     worker pool with worker-indexed scratch (Options.Workers > 0, or
//     a shared lik.Pool in a batch) — pruning as
//     (class × pattern-block) tiles, the transition-matrix phase as
//     per-(branch, slot) builds, and SetModel eigendecompositions as
//     per-slot tasks, so no serial kernel phase remains between
//     optimizer iterations.
//   - Streaming batch: many genes pulled through a bounded prefetch
//     window by RunBatchStream (from memory via SliceSource, from disk
//     via ManifestSource), fitted concurrently on one shared pool and
//     one shared eigendecomposition cache, results streamed to a
//     ResultSink in source order. The stream is context-cancellable at
//     gene boundaries; delivered results always form a prefix of the
//     source order.
//
// A fourth tier — resumable, checkpointed runs and the HTTP job
// service — is layered on top of the streaming contract by
// internal/checkpoint and internal/serve.
//
// Two invariants hold across all tiers and are enforced by tests:
//
//   - Bit-identity: for fixed Options, every tier produces the same
//     log-likelihoods bit-for-bit — parallelism reorders independent
//     work, never the arithmetic (disjoint tile and transition-matrix
//     buffers, per-worker scratch, serial in-order reductions).
//   - Cache safety: the shared lik.DecompCache keys decompositions on
//     the genetic code's identity plus the exact (κ, ω, π), so cache
//     hits can never substitute a decomposition from another code or
//     parameter set; a lookup is either exact or a miss.
package core

import (
	"fmt"

	"repro/internal/blas"
	"repro/internal/codon"
	"repro/internal/expm"
	"repro/internal/lik"
	"repro/internal/optimize"
	"repro/internal/persistcache"
)

// likConfig maps the options to the likelihood engine configuration,
// layering the parallel execution strategy and shared batch resources
// (worker pool, decomposition cache) over the engine kind's kernels.
func (o *Options) likConfig() lik.Config {
	cfg := o.Engine.LikConfig()
	cfg.Workers = o.Workers
	cfg.Pool = o.pool
	cfg.Decomps = o.decomps
	return cfg
}

// EngineKind selects one of the benchmarked engine configurations.
type EngineKind int

const (
	// EngineBaseline models original CodeML v4.4c.
	EngineBaseline EngineKind = iota
	// EngineSlim is SlimCodeML as benchmarked in the paper.
	EngineSlim
	// EngineSlimSym is SlimCodeML plus the Eq. 12–13 symmetric
	// conditional-vector update.
	EngineSlimSym
	// EngineSlimBundled is SlimCodeML plus BLAS-3 bundling of the
	// per-site updates.
	EngineSlimBundled
)

// String names the engine kind.
func (k EngineKind) String() string {
	switch k {
	case EngineBaseline:
		return "CodeML-baseline"
	case EngineSlim:
		return "SlimCodeML"
	case EngineSlimSym:
		return "SlimCodeML+symv"
	case EngineSlimBundled:
		return "SlimCodeML+bundled"
	}
	return fmt.Sprintf("engine(%d)", int(k))
}

// ParseEngineKind maps the CLI/API spelling ("baseline", "slim",
// "slim-sym", "slim-bundled"; empty selects slim) to an EngineKind.
func ParseEngineKind(s string) (EngineKind, error) {
	switch s {
	case "baseline":
		return EngineBaseline, nil
	case "", "slim":
		return EngineSlim, nil
	case "slim-sym":
		return EngineSlimSym, nil
	case "slim-bundled":
		return EngineSlimBundled, nil
	}
	return 0, fmt.Errorf("core: unknown engine %q", s)
}

// ParseFreqEstimator maps the CLI/API spelling ("f61", "f3x4",
// "uniform"; empty selects f61) to a FreqEstimator.
func ParseFreqEstimator(s string) (FreqEstimator, error) {
	switch s {
	case "", "f61":
		return FreqF61, nil
	case "f3x4":
		return FreqF3x4, nil
	case "uniform":
		return FreqUniform, nil
	}
	return 0, fmt.Errorf("core: unknown frequency model %q", s)
}

// LikConfig maps the engine kind to the likelihood engine strategy
// (exported for the repository-level benchmarks).
func (k EngineKind) LikConfig() lik.Config {
	switch k {
	case EngineBaseline:
		// The hand-rolled kernel's row product is one textbook mat-vec
		// per site, so bundling on it keeps CodeML's hand-rolled cost
		// in both P(t) and the apply.
		return lik.Config{Kernel: blas.HandRolledKernel, PMethod: expm.MethodGEMM, Apply: lik.ApplyBundled}
	case EngineSlim:
		return lik.Config{PMethod: expm.MethodSYRK, Apply: lik.ApplyPerSiteGEMV}
	case EngineSlimSym:
		return lik.Config{PMethod: expm.MethodSYRK, Apply: lik.ApplyPerSiteSYMV}
	case EngineSlimBundled:
		return lik.Config{PMethod: expm.MethodSYRK, Apply: lik.ApplyBundled}
	}
	panic(fmt.Sprintf("core: unknown engine kind %d", int(k)))
}

// optOptions maps the engine kind to the optimizer configuration. The
// two tiers deliberately take different (but individually standard)
// trajectories, reproducing the paper's observation that CodeML and
// SlimCodeML need different iteration counts due to "slightly
// different intermediate results".
func (k EngineKind) optOptions(maxIter int) optimize.Options {
	if k == EngineBaseline {
		return optimize.Options{
			MaxIterations: maxIter,
			Gradient:      optimize.GradForward,
			LineSearch:    optimize.SearchHalving,
			FDStep:        1e-6,
		}
	}
	return optimize.Options{
		MaxIterations: maxIter,
		Gradient:      optimize.GradCentral,
		LineSearch:    optimize.SearchInterpolating,
		FDStep:        1e-7,
	}
}

// FreqEstimator selects the codon frequency model (CodeML CodonFreq).
type FreqEstimator int

const (
	// FreqF61 uses observed codon proportions.
	FreqF61 FreqEstimator = iota
	// FreqF3x4 uses position-specific nucleotide frequency products.
	FreqF3x4
	// FreqUniform uses equal frequencies (Fequal).
	FreqUniform
)

// Options configures an Analysis.
type Options struct {
	// Engine selects the benchmarked configuration. The zero value is
	// EngineBaseline; the command-line tools and the daemon's job spec
	// default to EngineSlim (ParseEngineKind maps "" to it).
	Engine EngineKind
	// MaxIterations caps BFGS iterations per hypothesis; default 500
	// (CodeML-scale fits).
	MaxIterations int
	// Freq selects the equilibrium frequency estimator; default F61.
	Freq FreqEstimator
	// Seed controls the random jitter of the starting parameter
	// values, mirroring CodeML's RNG-seeded initial points ("we fixed
	// the seed for the random number generator, which is used to set
	// the initial tree parameter values").
	Seed int64
	// M0Start, when true, first fits the one-ratio M0 model and uses
	// its branch lengths to initialize the branch-site fits — the
	// initialization large-scale pipelines such as Selectome use.
	M0Start bool
	// Code selects the genetic code (CodeML icode); nil means the
	// universal code. The state-space dimension follows the code
	// (61 universal, 60 vertebrate mitochondrial).
	Code *codon.GeneticCode
	// Workers > 0 enables the block-pool parallel likelihood engine
	// with that many persistent workers per analysis; 0 keeps the
	// serial engine. Results are bit-identical either way.
	Workers int
	// Frequencies, when non-nil, fixes the equilibrium codon
	// frequencies instead of estimating them with Freq — the batch
	// driver's shared-frequency mode uses this to make cached
	// eigendecompositions reusable across genes.
	Frequencies []float64

	// Shared batch resources, injected by RunBatchStream.
	pool    *lik.Pool
	decomps *lik.DecompCache

	// Cross-run persistence, injected by RunBatchStream (see
	// StreamOptions.Persist): the store and the finalized fingerprint
	// results are keyed under.
	persist   *persistcache.Store
	persistFP string
}

func (o *Options) fill() {
	if o.MaxIterations == 0 {
		o.MaxIterations = 500
	}
	if o.Code == nil {
		o.Code = codon.Universal
	}
}
