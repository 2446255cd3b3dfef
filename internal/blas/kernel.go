package blas

import (
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/mat"
)

// The kernel seam: every NT-shaped matrix product the likelihood
// computation performs — C ← α·A·Bᵀ + βC with A m×k, B n×k, both
// k-contiguous in row-major storage — dispatches through a runtime-
// selected Kernel. The shape is the hot one everywhere: the Eq. 9
// transition build (Ỹ·Xᵀ in expm.PMatrix) and the BLAS-3 bundled
// conditional-vector update (partial·Pᵀ in lik.applyBranch) are both
// NT products on the 61-state codon space.
//
// Every registered kernel MUST be bit-exact against the naive
// reference: per output element, one scalar accumulator summed in
// strictly ascending k order, α applied once to the finished sum, β
// applied once to the previous C value. Kernels are free to reorder
// loops, tile registers, and pack operands — none of that changes the
// per-element floating-point operation sequence — but they may not
// split an accumulation (partial α applications) or reassociate the
// k sum. The conformance suite (conform_test.go) and the fuzz harness
// (FuzzDgemmNT) enforce this for every kernel in the registry and for
// the unregistered HandRolledKernel, so the engine-level determinism
// contract (results bit-identical across worker counts, tilings,
// shards, and resumes) extends across kernel choices: switching
// kernels can never change a likelihood.
//
// Selection: each lik engine names its kernel in its Config; engines
// that leave it nil take the process default, which is DefaultKernel,
// overridden by the KernelEnv environment variable at init and by
// SetKernel (the cmds' -kernel flag) afterwards. The "naive" kernel is
// always available as the reference fallback. The baseline engine pins
// HandRolledKernel (naive.go) instead, whatever the default. A future
// build-tagged assembly or gonum-backed variant only has to call
// Register from its own init and pass the conformance suite — no
// caller changes.

// Kernel is one implementation of the NT product family. Methods may
// assume validated arguments (the package-level dispatchers and the
// conformance suite check shapes); implementations must be safe for
// concurrent use — any scratch is per-call or pool-owned, never
// shared between two in-flight calls.
type Kernel interface {
	// Name identifies the kernel for registry lookup, flags and logs.
	Name() string
	// DgemmNT computes C ← α·A·Bᵀ + βC (A: m×k, B: n×k, C: m×n).
	DgemmNT(alpha float64, a, b *mat.Matrix, beta float64, c *mat.Matrix)
	// DgemmNTRows computes rows [lo, hi) of C ← α·A·Bᵀ + βC. Row i's
	// result must not depend on lo, hi, or which rows share a tile —
	// the property the parallel engine's determinism rests on.
	DgemmNTRows(alpha float64, a, b *mat.Matrix, beta float64, c *mat.Matrix, lo, hi int)
	// PackB snapshots B into pb's kernel-private layout for repeated
	// products (pb.buf is reused when large enough). The snapshot does
	// not track later mutations of b: re-pack after changing it.
	PackB(b *mat.Matrix, pb *PackedB)
	// DgemmNTRowsPacked is DgemmNTRows with a B previously packed by
	// this kernel.
	DgemmNTRowsPacked(alpha float64, a *mat.Matrix, pb *PackedB, beta float64, c *mat.Matrix, lo, hi int)
}

// PackedB is a B operand prepared once for repeated NT products — the
// pack-once/reuse path that amortizes packing across the optimizer's
// repeated per-branch products. The layout is private to the kernel
// that packed it; consuming dispatchers route to that kernel, so a
// PackedB stays valid even if the active kernel changes afterwards
// (every kernel is bit-exact, so results are unaffected either way).
type PackedB struct {
	owner Kernel
	rows  int // n: rows of B = columns of C
	depth int // k: the contraction length
	buf   []float64
}

// Kernel returns the name of the kernel that packed pb, or "" if pb
// has never been packed.
func (pb *PackedB) Kernel() string {
	if pb.owner == nil {
		return ""
	}
	return pb.owner.Name()
}

// Dims returns the (n, k) dimensions of the packed operand.
func (pb *PackedB) Dims() (n, k int) { return pb.rows, pb.depth }

// grow resizes pb.buf to length need, reusing capacity.
func (pb *PackedB) grow(need int) []float64 {
	if cap(pb.buf) < need {
		pb.buf = make([]float64, need)
	}
	pb.buf = pb.buf[:need]
	return pb.buf
}

// KernelEnv is the environment variable naming the kernel selected at
// process init (before flags are parsed); unset selects DefaultKernel.
const KernelEnv = "SLIMCODEML_KERNEL"

// DefaultKernel is the kernel used when neither KernelEnv nor a
// -kernel flag overrides the choice.
const DefaultKernel = "blocked"

var (
	kernelMu   sync.Mutex
	kernelSet  = map[string]Kernel{}
	kernelOrd  []string
	activeKern atomic.Value // kernelBox
)

// kernelBox keeps atomic.Value's concrete type constant across stores
// of different kernel implementations.
type kernelBox struct{ k Kernel }

// Register adds a kernel to the registry. It panics on a duplicate
// name — kernels register once, from package init functions.
func Register(k Kernel) {
	kernelMu.Lock()
	defer kernelMu.Unlock()
	name := k.Name()
	if name == "" {
		panic("blas: Register with empty kernel name")
	}
	if _, dup := kernelSet[name]; dup {
		panic(fmt.Sprintf("blas: kernel %q registered twice", name))
	}
	kernelSet[name] = k
	kernelOrd = append(kernelOrd, name)
}

// Kernels returns every registered kernel, the naive reference first,
// the rest in name order — the iteration order of the conformance
// suite, stable across registration order of future variants.
func Kernels() []Kernel {
	kernelMu.Lock()
	defer kernelMu.Unlock()
	names := append([]string(nil), kernelOrd...)
	sort.Slice(names, func(i, j int) bool {
		if names[i] == "naive" {
			return true
		}
		if names[j] == "naive" {
			return false
		}
		return names[i] < names[j]
	})
	out := make([]Kernel, len(names))
	for i, n := range names {
		out[i] = kernelSet[n]
	}
	return out
}

// KernelNames lists the registered kernel names in Kernels() order.
func KernelNames() []string {
	ks := Kernels()
	names := make([]string, len(ks))
	for i, k := range ks {
		names[i] = k.Name()
	}
	return names
}

// KernelByName looks up a registered kernel.
func KernelByName(name string) (Kernel, bool) {
	kernelMu.Lock()
	defer kernelMu.Unlock()
	k, ok := kernelSet[name]
	return k, ok
}

// ActiveKernel returns the kernel the package-level NT dispatchers
// route to.
func ActiveKernel() Kernel {
	return activeKern.Load().(kernelBox).k
}

// SetKernel selects the active kernel by name. Safe to call
// concurrently with dispatching goroutines (the swap is atomic and
// every kernel computes bit-identical results), but the intended use
// is once at startup, from KernelEnv or a -kernel flag.
func SetKernel(name string) error {
	k, ok := KernelByName(name)
	if !ok {
		return fmt.Errorf("blas: unknown kernel %q (have %v)", name, KernelNames())
	}
	activeKern.Store(kernelBox{k})
	return nil
}

func init() {
	Register(naiveKernel{})
	Register(blockedKernel{})
	name := os.Getenv(KernelEnv)
	if name == "" {
		name = DefaultKernel
	}
	if err := SetKernel(name); err != nil {
		panic(fmt.Sprintf("blas: %s=%q: %v", KernelEnv, name, err))
	}
}

// checkNTRows validates one NT row-range call; the packed variant
// passes b == nil and validates against pb's recorded dimensions.
func checkNTRows(a, b *mat.Matrix, c *mat.Matrix, n, k, lo, hi int) {
	if a.Cols != k {
		panic("blas: DgemmNTRows inner dimension mismatch")
	}
	if c.Rows != a.Rows || c.Cols != n {
		panic("blas: DgemmNTRows output dimension mismatch")
	}
	if lo < 0 || hi > a.Rows || lo > hi {
		panic("blas: DgemmNTRows row range out of bounds")
	}
	_ = b
}

// DgemmNT computes C ← α·A·Bᵀ + βC (A: m×k, B: n×k, C: m×n) on the
// active kernel — the seam's full-matrix entry point.
func DgemmNT(alpha float64, a, b *mat.Matrix, beta float64, c *mat.Matrix) {
	checkNTRows(a, b, c, b.Rows, b.Cols, 0, a.Rows)
	ActiveKernel().DgemmNT(alpha, a, b, beta, c)
}

// DgemmNTRows computes rows [lo, hi) of C ← α·A·Bᵀ + βC on the active
// kernel — the sub-range entry point the likelihood engine's
// pattern-block tiles use: each block of site patterns (rows of A and
// C) is pushed through the same transition matrix B independently.
//
// Every registered kernel computes each output row with a fixed
// per-element operation order that does not depend on lo, hi, or which
// rows share a register tile. Splitting the row range across any
// number of concurrent calls therefore produces results bit-identical
// to one full-range call — the property the parallel engine's
// determinism guarantee rests on.
func DgemmNTRows(alpha float64, a, b *mat.Matrix, beta float64, c *mat.Matrix, lo, hi int) {
	checkNTRows(a, b, c, b.Rows, b.Cols, lo, hi)
	ActiveKernel().DgemmNTRows(alpha, a, b, beta, c, lo, hi)
}

// PackNT packs B with the active kernel for repeated NT products,
// reusing pb's buffer when one is passed (nil allocates a fresh one).
// Returns pb for chaining.
func PackNT(b *mat.Matrix, pb *PackedB) *PackedB {
	if pb == nil {
		pb = &PackedB{}
	}
	ActiveKernel().PackB(b, pb)
	return pb
}

// DgemmNTRowsPacked is DgemmNTRows with a pre-packed B. It dispatches
// to the kernel that packed pb, so a PackedB built before a kernel
// switch stays usable (and bit-exactness makes the choice invisible).
func DgemmNTRowsPacked(alpha float64, a *mat.Matrix, pb *PackedB, beta float64, c *mat.Matrix, lo, hi int) {
	if pb.owner == nil {
		panic("blas: DgemmNTRowsPacked with an unpacked PackedB")
	}
	checkNTRows(a, nil, c, pb.rows, pb.depth, lo, hi)
	pb.owner.DgemmNTRowsPacked(alpha, a, pb, beta, c, lo, hi)
}

// DgemmNTPacked computes the full C ← α·A·Bᵀ + βC with a pre-packed B.
func DgemmNTPacked(alpha float64, a *mat.Matrix, pb *PackedB, beta float64, c *mat.Matrix) {
	DgemmNTRowsPacked(alpha, a, pb, beta, c, 0, a.Rows)
}

// scaleRows applies the β pre-scale to rows [lo, hi) of C. Combined
// with a later c += α·s this matches the reference α·s + β·c exactly
// (IEEE addition is commutative; each product is rounded once either
// way), so kernels share it.
func scaleRows(beta float64, c *mat.Matrix, lo, hi int) {
	if beta == 1 {
		return
	}
	for i := lo; i < hi; i++ {
		row := c.Row(i)
		if beta == 0 {
			for j := range row {
				row[j] = 0
			}
		} else {
			for j := range row {
				row[j] *= beta
			}
		}
	}
}
