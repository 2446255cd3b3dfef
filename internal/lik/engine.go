// Package lik implements the phylogenetic likelihood function for the
// branch-site model: Felsenstein's pruning algorithm (paper §II-B)
// over the four-class site mixture, with per-node underflow scaling,
// site-pattern weighting, and the three conditional-vector execution
// strategies the paper discusses:
//
//   - ApplyPerSiteGEMV — one general mat-vec per site per branch
//     (CodeML's strategy, §III-B);
//   - ApplyPerSiteSYMV — the symmetric-kernel formulation of Eq. 12–13
//     (M = Ŷ Ŷᵀ, w' = M·(Π∘w)), halving the memory traffic;
//   - ApplyBundled — all site patterns of a node bundled into one
//     matrix-matrix product (BLAS level 3, the paper's rule of thumb
//     and stated future optimization).
//
// The arithmetic behind the NT products is a second, independent axis:
// Config.Kernel names the blas.Kernel that runs the engine's P(t) GEMM
// (expm.MethodGEMM) and the bundled apply. The baseline engine pins
// blas.HandRolledKernel, whose row product is the textbook per-site
// mat-vec of CodeML's hand-rolled loops; every other engine takes the
// process default. Kernels are bit-exact against each other,
// so the kernel changes speed, never a likelihood, and the engine never
// branches on which one it holds.
//
// Orthogonally to both, two execution strategies are available (§V-B,
// the step toward the fully parallel FastCodeML):
//
//   - serial — one goroutine walks every class over every pattern;
//   - block-pool — a persistent worker Pool executes the engine's
//     independent work units under worker-indexed scratch. Pruning
//     runs as (class × pattern-block) tiles: the compressed pattern
//     range is split into cache-sized blocks and every kernel operates
//     on sub-ranges. The transition-matrix phase runs as
//     per-(branch, slot) tasks writing disjoint P(t) matrices, and
//     SetModel's eigendecompositions (on decomposition-cache miss) run
//     as per-slot tasks — so no serial phase remains between optimizer
//     iterations. Per-task contributions are combined by deterministic
//     serial reductions, so the result is bit-identical to the serial
//     path for any worker count and block size.
//
// Mutable kernel scratch (expm workspaces, apply-mode vectors) is
// owned per worker ID: pool workers and inline-executing submitters
// each hold a stable ID into the pool's scratch arenas, while a
// pool-less engine owns a single-slot arena and executes everything as
// worker 0. No scratch is ever shared between two concurrently running
// tasks.
//
// The engine caches one "message" per branch and site class — the
// child's conditional probability vector propagated through the
// branch's transition matrix — so that perturbing a single branch
// length (as the optimizer's numerical gradient does for every branch)
// only recomputes the path from that branch to the root.
//
// Eigendecompositions can additionally be memoized in a DecompCache
// shared across engines and genes. The cache key is the genetic
// code's identity plus the exact (κ, ω) pair and a verified
// fingerprint of π: a hit returns precisely the decomposition that
// would have been recomputed, so caching (like the worker pool) can
// reorder work but never change a likelihood, and one cache safely
// serves mixed-code batches.
//
// An Engine is not safe for concurrent use; concurrency lives inside
// LogLikelihood / BranchLogLikelihood (and across engines sharing a
// Pool).
package lik

import (
	"fmt"
	"math"

	"repro/internal/align"
	"repro/internal/blas"
	"repro/internal/codon"
	"repro/internal/expm"
	"repro/internal/mat"
	"repro/internal/newick"
)

// ApplyMode selects how conditional probability vectors are pushed
// through a branch.
type ApplyMode int

const (
	// ApplyPerSiteGEMV: one general matrix-vector product per pattern.
	ApplyPerSiteGEMV ApplyMode = iota
	// ApplyPerSiteSYMV: the symmetric-kernel update of Eq. 12–13.
	ApplyPerSiteSYMV
	// ApplyBundled: one matrix-matrix product per branch covering all
	// patterns (BLAS-3 bundling).
	ApplyBundled
)

// DefaultBlockSize is the default pattern count per worker tile: 64
// patterns × 61 states × 8 bytes ≈ 30 KiB per conditional matrix,
// sized so a tile's working set stays L1/L2-resident.
const DefaultBlockSize = 64

// Config selects the execution strategy of an Engine.
type Config struct {
	// Kernel runs the engine's NT products: the P(t) GEMM of
	// expm.MethodGEMM and the bundled apply against the transition
	// matrices it packs. nil selects the process default,
	// blas.ActiveKernel() at New. Every kernel is bit-exact, so the
	// choice changes speed only.
	Kernel  blas.Kernel
	PMethod expm.Method
	Apply   ApplyMode
	// ScaleThreshold triggers per-pattern rescaling of conditional
	// vectors when their maximum drops below it; zero selects the
	// default 1e-100.
	ScaleThreshold float64
	// Workers > 0 selects the block-pool engine with an engine-owned
	// pool of that many persistent workers (call Close to release
	// them). Ignored when Pool is set.
	Workers int
	// Pool, when non-nil, runs the engine's tiles on a shared worker
	// pool instead of an engine-owned one — the multi-gene batch
	// driver points every gene's engine at one pool.
	Pool *Pool
	// BlockSize is the number of patterns per tile in block-pool mode;
	// zero selects DefaultBlockSize. The result does not depend on it.
	BlockSize int
	// Decomps, when non-nil, caches eigendecompositions across
	// SetModel calls and across engines sharing the cache.
	Decomps *DecompCache
}

func (c *Config) fill() {
	if c.Kernel == nil {
		c.Kernel = blas.ActiveKernel()
	}
	if c.ScaleThreshold == 0 {
		c.ScaleThreshold = 1e-100
	}
	if c.BlockSize <= 0 {
		c.BlockSize = DefaultBlockSize
	}
}

// Stats counts the expensive operations an Engine has performed,
// for the ablation benchmarks and tests.
type Stats struct {
	Eigendecompositions int
	TransitionBuilds    int
	FullEvaluations     int
	BranchEvaluations   int
}

type nodeInfo struct {
	id         int
	parent     int // -1 for the root
	children   []int
	leafRow    int // pattern-row index for leaves, -1 for internal
	foreground bool
	depth      int // edges from root
}

// blockRange is one pattern-block tile: patterns [lo, hi).
type blockRange struct {
	lo, hi int
}

// Engine evaluates the branch-site log-likelihood on a fixed topology
// and alignment. It is stateful: SetModel and SetBranchLengths update
// the model; LogLikelihood runs a full pruning pass;
// BranchLogLikelihood evaluates a single-branch perturbation without
// disturbing the cached state.
type Engine struct {
	cfg  Config
	n    int // codon states (61)
	npat int

	nodes    []nodeInfo // post-order; index == id
	rootID   int
	maxDepth int

	// Block-pool execution: blocks partitions [0, npat); pool is the
	// engine-owned or shared worker-indexed pool (nil → everything
	// runs inline on the calling goroutine as worker 0 of the
	// engine-owned arena).
	blocks   []blockRange
	pool     *Pool
	ownsPool bool

	// leafCodon[leafRow][pattern] — sense index or align.Missing.
	leafCodon [][]int
	weights   []float64

	model      Model
	numClasses int
	numSlots   int
	decomps    []*expm.Decomposition
	// arena is the single-slot scratch of a pool-less engine (the
	// calling goroutine is worker 0); engines with a pool use the
	// pool's shared per-worker arena instead.
	arena *expm.Arena
	pi    []float64
	props []float64

	brLen  []float64 // by node id; root entry unused
	pDirty []bool

	// trans[v][w] is the transition matrix (or symmetric kernel in
	// SYMV mode) of branch v for rate slot w; nil when the class
	// mapping never needs it. In bundled-apply mode transPack[v][w]
	// additionally holds the matrix packed by the engine's kernel, so
	// the many per-tile × per-class products against the same branch
	// matrix skip the per-call packing cost; it stays nil otherwise.
	trans     [][]*mat.Matrix
	transPack [][]*blas.PackedB

	// msg[class][v] is P_v·partial(v) per pattern (rows = patterns);
	// scale[class][v][pat] accumulates the log-scaling of the subtree.
	msg   [][]*mat.Matrix
	scale [][][]float64

	// Scratch for BranchLogLikelihood: scrMsg/scrMsgScale hold the
	// perturbed message travelling up the path, scrMsg2/scrScale2 the
	// next level (tiles alternate between the pair without mutating
	// engine state), scrPartial the node partial being formed and the
	// root partial at the end of the walk; scrRootScale is the fixed
	// destination of the root scale so its location does not depend on
	// the path's parity.
	scrTrans     []*mat.Matrix
	scrTransPack []*blas.PackedB
	scrMsg       []*mat.Matrix
	scrMsg2      []*mat.Matrix
	scrPartial   []*mat.Matrix
	scrMsgScale  [][]float64
	scrScale2    [][]float64
	scrRootScale [][]float64

	// vecScratch is the apply-mode scratch vector of a pool-less
	// engine; pooled tiles use their worker's Pool.Vec instead.
	vecScratch []float64

	// siteLnL[p] is pattern p's weighted log-likelihood contribution,
	// filled per block and reduced serially so the total is identical
	// for every execution strategy.
	siteLnL []float64

	stats Stats
}

// New builds an engine for the tree and compressed alignment. names
// gives the species name of each pattern row; every tree leaf must
// match exactly one row.
func New(t *newick.Tree, pats *align.Patterns, names []string, cfg Config) (*Engine, error) {
	cfg.fill()
	if pats.NumSeqs != len(names) {
		return nil, fmt.Errorf("lik: %d names for %d pattern rows", len(names), pats.NumSeqs)
	}
	if t.NumLeaves() != len(names) {
		return nil, fmt.Errorf("lik: tree has %d leaves, alignment %d sequences", t.NumLeaves(), len(names))
	}
	rowOf := make(map[string]int, len(names))
	for i, nm := range names {
		if _, dup := rowOf[nm]; dup {
			return nil, fmt.Errorf("lik: duplicate sequence name %q", nm)
		}
		rowOf[nm] = i
	}

	n := pats.Code.NumStates()
	e := &Engine{
		cfg:     cfg,
		n:       n,
		npat:    pats.NumPatterns(),
		rootID:  t.Root.ID,
		weights: append([]float64(nil), pats.Weights...),
	}

	// Flatten topology.
	e.nodes = make([]nodeInfo, len(t.Nodes))
	for _, nd := range t.Nodes {
		info := nodeInfo{id: nd.ID, parent: -1, leafRow: -1, foreground: nd.Mark == 1}
		if nd.Parent != nil {
			info.parent = nd.Parent.ID
		}
		for _, c := range nd.Children {
			info.children = append(info.children, c.ID)
		}
		if nd.IsLeaf() {
			row, ok := rowOf[nd.Name]
			if !ok {
				return nil, fmt.Errorf("lik: tree leaf %q not in alignment", nd.Name)
			}
			info.leafRow = row
		}
		e.nodes[nd.ID] = info
	}
	// Depths (root has depth 0); post-order stores parents after
	// children, so walk in reverse.
	for i := len(e.nodes) - 1; i >= 0; i-- {
		nd := &e.nodes[i]
		if nd.parent >= 0 {
			nd.depth = e.nodes[nd.parent].depth + 1
			if nd.depth > e.maxDepth {
				e.maxDepth = nd.depth
			}
		}
	}

	// Transpose pattern columns into per-leaf rows for cache-friendly
	// leaf message construction.
	e.leafCodon = make([][]int, len(names))
	for r := range names {
		e.leafCodon[r] = make([]int, e.npat)
		for p := 0; p < e.npat; p++ {
			e.leafCodon[r][p] = pats.Columns[p][r]
		}
	}

	e.brLen = make([]float64, len(e.nodes))
	e.pDirty = make([]bool, len(e.nodes))
	for _, nd := range t.Nodes {
		if nd.Parent != nil {
			e.brLen[nd.ID] = nd.Length
			e.pDirty[nd.ID] = true
		}
	}

	// Pattern-block tiles and the worker pool.
	for lo := 0; lo < e.npat; lo += cfg.BlockSize {
		hi := lo + cfg.BlockSize
		if hi > e.npat {
			hi = e.npat
		}
		e.blocks = append(e.blocks, blockRange{lo: lo, hi: hi})
	}
	if len(e.blocks) == 0 {
		e.blocks = []blockRange{{0, 0}}
	}
	switch {
	case cfg.Pool != nil:
		e.pool = cfg.Pool
	case cfg.Workers > 0:
		e.pool = NewPool(cfg.Workers)
		e.ownsPool = true
	default:
		e.arena = expm.NewArena(1)
	}
	e.siteLnL = make([]float64, e.npat)
	e.vecScratch = make([]float64, n)

	return e, nil
}

// Close releases the engine-owned worker pool, if any. Engines using a
// shared Pool (Config.Pool) leave it running; engines without a pool
// need no Close. Safe to call multiple times. A closed engine remains
// usable: it falls back to serial execution as worker 0 of its own
// arena.
func (e *Engine) Close() {
	if e.ownsPool {
		e.pool.Close()
		e.ownsPool = false
		e.pool = nil
		e.arena = expm.NewArena(1)
	}
}

// ensureBuffers (re)allocates the per-class and per-slot buffers when
// a model with a new shape is installed.
func (e *Engine) ensureBuffers(numClasses, numSlots int) {
	if numSlots != e.numSlots {
		e.numSlots = numSlots
		e.trans = make([][]*mat.Matrix, len(e.nodes))
		e.transPack = make([][]*blas.PackedB, len(e.nodes))
		for v := range e.trans {
			e.trans[v] = make([]*mat.Matrix, numSlots)
			e.transPack[v] = make([]*blas.PackedB, numSlots)
		}
		e.scrTrans = make([]*mat.Matrix, numSlots)
		e.scrTransPack = make([]*blas.PackedB, numSlots)
		for w := range e.scrTrans {
			e.scrTrans[w] = mat.New(e.n, e.n)
		}
	}
	if numClasses == e.numClasses {
		return
	}
	e.numClasses = numClasses
	e.msg = make([][]*mat.Matrix, numClasses)
	e.scale = make([][][]float64, numClasses)
	e.scrMsg = make([]*mat.Matrix, numClasses)
	e.scrMsg2 = make([]*mat.Matrix, numClasses)
	e.scrPartial = make([]*mat.Matrix, numClasses)
	e.scrMsgScale = make([][]float64, numClasses)
	e.scrScale2 = make([][]float64, numClasses)
	e.scrRootScale = make([][]float64, numClasses)
	for c := 0; c < numClasses; c++ {
		e.msg[c] = make([]*mat.Matrix, len(e.nodes))
		e.scale[c] = make([][]float64, len(e.nodes))
		for v := range e.nodes {
			e.msg[c][v] = mat.New(e.npat, e.n)
			e.scale[c][v] = make([]float64, e.npat)
		}
		e.scrMsg[c] = mat.New(e.npat, e.n)
		e.scrMsg2[c] = mat.New(e.npat, e.n)
		e.scrPartial[c] = mat.New(e.npat, e.n)
		e.scrMsgScale[c] = make([]float64, e.npat)
		e.scrScale2[c] = make([]float64, e.npat)
		e.scrRootScale[c] = make([]float64, e.npat)
	}
}

// runTasks executes task(worker, i) for every i in [0, n): on the
// attached pool's worker-indexed executor when one is present, else
// inline on the calling goroutine as worker 0 of the engine-owned
// scratch arena.
func (e *Engine) runTasks(n int, task func(worker, i int)) {
	if e.pool != nil {
		e.pool.Run(n, task)
		return
	}
	for i := 0; i < n; i++ {
		task(0, i)
	}
}

// workspace returns the expm scratch of the given worker ID, sized for
// this engine's state space.
func (e *Engine) workspace(worker int) *expm.Workspace {
	if e.pool != nil {
		return e.pool.Workspace(worker, e.n)
	}
	return e.arena.At(worker, e.n)
}

// NumPatterns returns the number of compressed site patterns.
func (e *Engine) NumPatterns() int { return e.npat }

// NumNodes returns the number of tree nodes.
func (e *Engine) NumNodes() int { return len(e.nodes) }

// RootID returns the node ID of the root.
func (e *Engine) RootID() int { return e.rootID }

// BranchIDs lists the node IDs that own a branch (all but the root),
// in post-order.
func (e *Engine) BranchIDs() []int {
	out := make([]int, 0, len(e.nodes)-1)
	for v := range e.nodes {
		if v != e.rootID {
			out = append(out, v)
		}
	}
	return out
}

// Stats returns a copy of the operation counters.
func (e *Engine) Stats() Stats { return e.stats }

// SetModel installs a site-class model, rebuilding the per-slot
// eigendecompositions (deduplicated by rate-matrix pointer, so an H0
// model whose ω2 slot aliases ω1 costs one decomposition less, as in
// CodeML, and looked up in Config.Decomps when a cache is attached)
// and invalidating every cached transition matrix. Decompositions the
// cache does not supply are computed through the same pooled phase as
// the transition builds — one task per distinct rate matrix — so even
// a model install has no serial kernel work when a pool is attached.
func (e *Engine) SetModel(m Model) error {
	if m.GeneticCode().NumStates() != e.n {
		return fmt.Errorf("lik: model has %d states, engine %d", m.GeneticCode().NumStates(), e.n)
	}
	e.model = m
	e.pi = m.Frequencies()
	e.props = m.ClassProportions()
	e.ensureBuffers(m.NumSiteClasses(), m.NumRateSlots())

	// Reset the decomposition slots: a previous model's decomposition
	// must never survive into a model that aliases slots differently.
	// Serial part: dedup by rate pointer and probe the cache.
	e.decomps = make([]*expm.Decomposition, e.numSlots)
	type decompJob struct {
		rate  *codon.Rate
		slots []int
		d     *expm.Decomposition
		err   error
	}
	byRate := make(map[*codon.Rate]*decompJob, e.numSlots)
	var misses []*decompJob
	for slot := 0; slot < e.numSlots; slot++ {
		rate := m.RateAt(slot)
		if j, ok := byRate[rate]; ok {
			j.slots = append(j.slots, slot)
			continue
		}
		j := &decompJob{rate: rate, slots: []int{slot}}
		if e.cfg.Decomps != nil {
			j.d = e.cfg.Decomps.Get(rate)
		}
		if j.d == nil {
			misses = append(misses, j)
		}
		byRate[rate] = j
	}
	// Parallel part: one Decompose task per cache miss. Each task
	// writes only its own job, so any worker interleaving yields the
	// same decompositions.
	if len(misses) > 0 {
		e.stats.Eigendecompositions += len(misses)
		e.runTasks(len(misses), func(_, i int) {
			j := misses[i]
			j.d, j.err = expm.Decompose(j.rate.S, j.rate.Pi)
		})
		for _, j := range misses {
			if j.err != nil {
				return j.err
			}
			if e.cfg.Decomps != nil {
				e.cfg.Decomps.Put(j.rate, j.d)
			}
		}
	}
	for _, j := range byRate {
		for _, slot := range j.slots {
			e.decomps[slot] = j.d
		}
	}
	for v := range e.pDirty {
		if v != e.rootID {
			e.pDirty[v] = true
		}
	}
	return nil
}

// SetBranchLengths installs branch lengths indexed by node ID,
// invalidating the transition matrices of changed branches only.
func (e *Engine) SetBranchLengths(lens []float64) error {
	if len(lens) != len(e.nodes) {
		return fmt.Errorf("lik: %d lengths for %d nodes", len(lens), len(e.nodes))
	}
	for v := range e.nodes {
		if v == e.rootID {
			continue
		}
		if lens[v] < 0 {
			return fmt.Errorf("lik: negative branch length %g on node %d", lens[v], v)
		}
		if lens[v] != e.brLen[v] {
			e.brLen[v] = lens[v]
			e.pDirty[v] = true
		}
	}
	return nil
}

// BranchLengths returns a copy of the current branch lengths by node
// ID.
func (e *Engine) BranchLengths() []float64 {
	return append([]float64(nil), e.brLen...)
}

// neededSlots returns which rate slots branch v requires, given its
// foreground status: the union over classes of the model's
// assignment, deduplicated.
func (e *Engine) neededSlots(v int) []bool {
	need := make([]bool, e.numSlots)
	fg := e.nodes[v].foreground
	for c := 0; c < e.numClasses; c++ {
		need[e.model.RateSlotFor(c, fg)] = true
	}
	return need
}

// transTask is one unit of the pooled transition phase: build the
// P(t) (or symmetric-kernel) matrix of one (branch, slot) pair into
// its own dst. Tasks write disjoint matrices and read only immutable
// decompositions, so they run concurrently in any order.
type transTask struct {
	slot int
	t    float64 // effective time, model scaling already applied
	dst  *mat.Matrix
	pack *blas.PackedB // non-nil in bundled mode: re-pack dst after the build
}

// appendTransTasks appends one task per rate slot branch v needs at
// branch length t, allocating missing dst matrices and pack slots
// (serially, so the parallel phase never mutates the slices
// themselves). packs runs parallel to dst; in bundled-apply mode each
// task also packs its freshly built matrix for the NT kernel seam,
// amortizing the packing across every downstream tile × class product.
func (e *Engine) appendTransTasks(tasks []transTask, v int, t float64, dst []*mat.Matrix, packs []*blas.PackedB) []transTask {
	need := e.neededSlots(v)
	tEff := e.model.EffectiveTime(t)
	bundled := e.cfg.Apply == ApplyBundled
	for w := 0; w < e.numSlots; w++ {
		if !need[w] {
			continue
		}
		if dst[w] == nil {
			dst[w] = mat.New(e.n, e.n)
		}
		tk := transTask{slot: w, t: tEff, dst: dst[w]}
		if bundled {
			if packs[w] == nil {
				packs[w] = &blas.PackedB{}
			}
			tk.pack = packs[w]
		}
		tasks = append(tasks, tk)
	}
	return tasks
}

// runTransTasks executes the collected transition builds through the
// worker-indexed executor, each task on its worker's workspace. The
// matrix a task produces depends only on (decomposition, t, method) —
// workspaces are fully overwritten — so results are bit-identical to
// the serial path for any worker count.
func (e *Engine) runTransTasks(tasks []transTask) {
	if len(tasks) == 0 {
		return
	}
	e.stats.TransitionBuilds += len(tasks)
	symv := e.cfg.Apply == ApplyPerSiteSYMV
	e.runTasks(len(tasks), func(worker, i int) {
		tk := tasks[i]
		ws := e.workspace(worker)
		if symv {
			e.decomps[tk.slot].SymKernel(tk.t, tk.dst, ws)
		} else {
			e.decomps[tk.slot].PMatrixOn(e.cfg.Kernel, tk.t, e.cfg.PMethod, tk.dst, ws)
		}
		if tk.pack != nil {
			// Each task owns its pack exclusively, so concurrent
			// re-packs are race-free like the dst writes.
			e.cfg.Kernel.PackB(tk.dst, tk.pack)
		}
	})
}

// buildTransition fills dst[w] (and packs[w] in bundled mode) for the
// omega indices branch v needs at branch length t.
func (e *Engine) buildTransition(v int, t float64, dst []*mat.Matrix, packs []*blas.PackedB) {
	e.runTransTasks(e.appendTransTasks(nil, v, t, dst, packs))
}

// refreshTransitions rebuilds the cached transition matrices of dirty
// branches as one pooled phase: every dirty (branch, slot) pair is an
// independent task, so a full-gradient re-install (which dirties all
// branches) parallelizes over branches × slots instead of serializing
// O(branches × slots) eigvec products behind one workspace.
func (e *Engine) refreshTransitions() {
	var tasks []transTask
	for v := range e.nodes {
		if v == e.rootID || !e.pDirty[v] {
			continue
		}
		tasks = e.appendTransTasks(tasks, v, e.brLen[v], e.trans[v], e.transPack[v])
		e.pDirty[v] = false
	}
	e.runTransTasks(tasks)
}

// RefreshTransitions rebuilds the transition matrices of branches
// whose length or model changed since the last evaluation. It is
// called implicitly by LogLikelihood and BranchLogLikelihood; it is
// exported so benchmarks (and drivers that want to front-load the
// transition phase) can measure or trigger it in isolation.
func (e *Engine) RefreshTransitions() {
	if e.model == nil {
		panic("lik: RefreshTransitions before SetModel")
	}
	e.refreshTransitions()
}

// LogLikelihood runs a full pruning pass and returns the
// log-likelihood of the alignment under the current model and branch
// lengths.
func (e *Engine) LogLikelihood() float64 {
	if e.model == nil {
		panic("lik: LogLikelihood before SetModel")
	}
	e.refreshTransitions()
	e.stats.FullEvaluations++
	switch {
	case e.pool != nil:
		// Block-pool: one task per (class × pattern-block) tile, each
		// using its worker's scratch vector.
		nb := len(e.blocks)
		e.pool.Run(e.numClasses*nb, func(worker, i int) {
			blk := e.blocks[i%nb]
			e.pruneClassRange(i/nb, blk.lo, blk.hi, e.pool.Vec(worker, e.n))
		})
	default:
		for c := 0; c < e.numClasses; c++ {
			e.pruneClassRange(c, 0, e.npat, e.vecScratch)
		}
	}
	partials := make([]*mat.Matrix, e.numClasses)
	scales := make([][]float64, e.numClasses)
	for c := 0; c < e.numClasses; c++ {
		partials[c] = e.msg[c][e.rootID]
		scales[c] = e.scale[c][e.rootID]
	}
	return e.combineRoot(partials, scales)
}

// pruneClassRange recomputes the messages of one site class for the
// patterns [lo, hi) bottom-up and leaves the root partial rows in
// msg[class][root]. Ranges of the same class are independent, so any
// tiling of the pattern range may run concurrently.
func (e *Engine) pruneClassRange(c, lo, hi int, scratch []float64) {
	for v := 0; v < len(e.nodes); v++ {
		nd := &e.nodes[v]
		if v == e.rootID {
			e.computePartial(c, nd, e.msg[c][v], e.scale[c][v], nil, nil, -1, lo, hi)
			continue
		}
		w := e.model.RateSlotFor(c, nd.foreground)
		if nd.leafRow >= 0 {
			e.leafMessage(e.trans[v][w], nd.leafRow, e.msg[c][v], lo, hi)
			zero(e.scale[c][v][lo:hi])
			continue
		}
		// Internal: partial into scratch, then propagate.
		e.computePartial(c, nd, e.scrPartial[c], e.scale[c][v], nil, nil, -1, lo, hi)
		e.applyBranch(e.trans[v][w], e.transPack[v][w], e.scrPartial[c], e.msg[c][v], scratch, lo, hi)
	}
}

// computePartial forms the conditional partial of an internal node for
// patterns [lo, hi) as the element-wise product of its children's
// messages, accumulating and applying scaling. If override is non-nil
// it replaces the message (and scale) of child overrideChild — used by
// the path update. dstScale must not alias overrideScale or any
// child's stored scale.
func (e *Engine) computePartial(c int, nd *nodeInfo, dst *mat.Matrix, dstScale []float64, override *mat.Matrix, overrideScale []float64, overrideChild, lo, hi int) {
	first := true
	zero(dstScale[lo:hi])
	for _, ch := range nd.children {
		src := e.msg[c][ch]
		srcScale := e.scale[c][ch]
		if ch == overrideChild {
			src = override
			srcScale = overrideScale
		}
		if first {
			for p := lo; p < hi; p++ {
				copy(dst.Row(p), src.Row(p))
			}
			copy(dstScale[lo:hi], srcScale[lo:hi])
			first = false
			continue
		}
		for p := lo; p < hi; p++ {
			drow := dst.Row(p)
			srow := src.Row(p)
			for i := range drow {
				drow[i] *= srow[i]
			}
			dstScale[p] += srcScale[p]
		}
	}
	// Underflow guard: rescale patterns whose maximum has shrunk below
	// the threshold.
	for p := lo; p < hi; p++ {
		row := dst.Row(p)
		max := mat.VecMax(row)
		if max > 0 && max < e.cfg.ScaleThreshold {
			inv := 1 / max
			for i := range row {
				row[i] *= inv
			}
			dstScale[p] += math.Log(max)
		}
	}
}

// leafMessage writes the message rows [lo, hi) of a leaf branch
// directly from the transition matrix columns: P·e_k is column k of P
// (and for the symmetric kernel, M·(Π∘e_k) = π_k·column k of M).
// Missing data yields the all-ones vector.
func (e *Engine) leafMessage(tm *mat.Matrix, leafRow int, dst *mat.Matrix, lo, hi int) {
	codons := e.leafCodon[leafRow]
	pi := e.pi
	symv := e.cfg.Apply == ApplyPerSiteSYMV
	for p := lo; p < hi; p++ {
		drow := dst.Row(p)
		k := codons[p]
		if k < 0 {
			for i := range drow {
				drow[i] = 1
			}
			continue
		}
		if symv {
			f := pi[k]
			for i := range drow {
				drow[i] = f * tm.At(i, k)
			}
		} else {
			for i := range drow {
				drow[i] = tm.At(i, k)
			}
		}
	}
}

// applyBranch propagates the partial rows [lo, hi) through a branch's
// transition matrix (or symmetric kernel) according to the configured
// apply mode, writing one message row per pattern. Every mode works
// row-by-row with a fixed per-row operation order, so any tiling of
// the pattern range produces bit-identical rows. In bundled mode pb is
// tm packed by the engine's kernel, which therefore runs the product.
func (e *Engine) applyBranch(tm *mat.Matrix, pb *blas.PackedB, partial, dst *mat.Matrix, scratch []float64, lo, hi int) {
	switch e.cfg.Apply {
	case ApplyPerSiteGEMV:
		for p := lo; p < hi; p++ {
			blas.Dgemv(false, 1, tm, partial.Row(p), 0, dst.Row(p))
		}
	case ApplyPerSiteSYMV:
		pi := e.pi
		for p := lo; p < hi; p++ {
			src := partial.Row(p)
			for i := range scratch {
				scratch[i] = pi[i] * src[i]
			}
			blas.Dsymv(1, tm, scratch, 0, dst.Row(p))
		}
	case ApplyBundled:
		// dst[p][i] = Σ_j partial[p][j]·P[i][j]: one row-ranged GEMM
		// over the block's patterns (BLAS-3 bundling) against the
		// pre-packed transition matrix.
		blas.DgemmNTRowsPacked(1, partial, pb, 0, dst, lo, hi)
	default:
		panic(fmt.Sprintf("lik: unknown apply mode %d", e.cfg.Apply))
	}
	// Clamp rounding negatives so mixtures stay non-negative.
	for p := lo; p < hi; p++ {
		row := dst.Row(p)
		for i, v := range row {
			if v < 0 {
				row[i] = 0
			}
		}
	}
}

// combineRoot folds the per-class root partials into the total
// log-likelihood. Per-pattern contributions are computed (in parallel
// over pattern blocks when a pool is attached) into siteLnL, then
// summed by one serial in-order reduction — the deterministic
// combination that keeps every execution strategy bit-identical.
func (e *Engine) combineRoot(partials []*mat.Matrix, scales [][]float64) float64 {
	if e.pool != nil && len(e.blocks) > 1 {
		e.pool.Run(len(e.blocks), func(_, bi int) {
			blk := e.blocks[bi]
			e.combineRootRange(partials, scales, blk.lo, blk.hi)
		})
	} else {
		e.combineRootRange(partials, scales, 0, e.npat)
	}
	total := 0.0
	for _, v := range e.siteLnL {
		total += v
	}
	return total
}

// combineRootRange fills siteLnL for patterns [lo, hi): per pattern,
// weight · log Σ_c prop_c·exp(scale_c)·(πᵀv_c) computed with a
// log-sum-exp over classes.
func (e *Engine) combineRootRange(partials []*mat.Matrix, scales [][]float64, lo, hi int) {
	props := e.props
	pi := e.pi
	classLog := make([]float64, e.numClasses)
	for p := lo; p < hi; p++ {
		maxLog := math.Inf(-1)
		for c := 0; c < e.numClasses; c++ {
			dot := blas.Ddot(pi, partials[c].Row(p))
			if dot <= 0 {
				classLog[c] = math.Inf(-1)
			} else {
				classLog[c] = math.Log(props[c]) + math.Log(dot) + scales[c][p]
			}
			if classLog[c] > maxLog {
				maxLog = classLog[c]
			}
		}
		if math.IsInf(maxLog, -1) {
			e.siteLnL[p] = math.Inf(-1)
			continue
		}
		sum := 0.0
		for c := 0; c < e.numClasses; c++ {
			sum += math.Exp(classLog[c] - maxLog)
		}
		e.siteLnL[p] = e.weights[p] * (maxLog + math.Log(sum))
	}
}

// BranchLogLikelihood returns the log-likelihood with branch v set to
// length t, leaving all cached state untouched. The caches must be
// current (i.e. LogLikelihood must have been called since the last
// SetModel/SetBranchLengths); this is the cheap path the numerical
// gradient uses for branch-length parameters.
func (e *Engine) BranchLogLikelihood(v int, t float64) float64 {
	if v == e.rootID {
		panic("lik: the root has no branch")
	}
	if t < 0 {
		panic(fmt.Sprintf("lik: negative branch length %g", t))
	}
	e.refreshTransitions()
	e.stats.BranchEvaluations++
	e.buildTransition(v, t, e.scrTrans, e.scrTransPack)

	if e.pool != nil && len(e.blocks) > 1 {
		e.pool.Run(len(e.blocks), func(worker, bi int) {
			blk := e.blocks[bi]
			e.branchWalkRange(v, blk.lo, blk.hi, e.pool.Vec(worker, e.n))
		})
	} else {
		e.branchWalkRange(v, 0, e.npat, e.vecScratch)
	}

	rootPartials := make([]*mat.Matrix, e.numClasses)
	rootScales := make([][]float64, e.numClasses)
	for c := 0; c < e.numClasses; c++ {
		rootPartials[c] = e.scrPartial[c]
		rootScales[c] = e.scrRootScale[c]
	}
	return e.combineRoot(rootPartials, rootScales)
}

// branchWalkRange recomputes branch v's message from the perturbed
// transition matrix for patterns [lo, hi) and walks the path to the
// root, overriding the path child's message at every level. The walk
// alternates between the scrMsg/scrMsg2 buffer pair using local
// references only — every tile performs the same number of
// alternations, so concurrent tiles stay aligned without mutating
// engine state — and deposits the root partial rows in scrPartial and
// the root scale in scrRootScale.
func (e *Engine) branchWalkRange(v, lo, hi int, scratch []float64) {
	for c := 0; c < e.numClasses; c++ {
		nd := &e.nodes[v]
		w := e.model.RateSlotFor(c, nd.foreground)
		msg, msc := e.scrMsg[c], e.scrMsgScale[c]
		alt, asc := e.scrMsg2[c], e.scrScale2[c]
		if nd.leafRow >= 0 {
			e.leafMessage(e.scrTrans[w], nd.leafRow, msg, lo, hi)
			zero(msc[lo:hi])
		} else {
			// partial(v) from the stored children messages; the
			// message inherits the partial's scale.
			e.computePartial(c, nd, e.scrPartial[c], msc, nil, nil, -1, lo, hi)
			e.applyBranch(e.scrTrans[w], e.scrTransPack[w], e.scrPartial[c], msg, scratch, lo, hi)
		}

		child := v
		for u := e.nodes[v].parent; u >= 0; u = e.nodes[u].parent {
			und := &e.nodes[u]
			if u == e.rootID {
				e.computePartial(c, und, e.scrPartial[c], e.scrRootScale[c], msg, msc, child, lo, hi)
				break
			}
			uw := e.model.RateSlotFor(c, und.foreground)
			e.computePartial(c, und, e.scrPartial[c], asc, msg, msc, child, lo, hi)
			e.applyBranch(e.trans[u][uw], e.transPack[u][uw], e.scrPartial[c], alt, scratch, lo, hi)
			msg, alt = alt, msg
			msc, asc = asc, msc
			child = u
		}
	}
}

func zero(v []float64) {
	for i := range v {
		v[i] = 0
	}
}
