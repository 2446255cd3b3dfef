package lik

import (
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"repro/internal/bsm"
	"repro/internal/codon"
	"repro/internal/expm"
	"repro/internal/newick"
	"repro/internal/sitemodel"
)

// randomAlignment builds a stop-free nucleotide alignment with enough
// variation to produce many site patterns, so the block engine gets
// several tiles even at small block sizes.
func randomAlignment(t testing.TB, names []string, codons int, seed int64) []string {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	nucs := "TCAG"
	seqs := make([]string, len(names))
	for i := range seqs {
		b := make([]byte, 0, 3*codons)
		for len(b) < 3*codons {
			trip := []byte{nucs[rng.Intn(4)], nucs[rng.Intn(4)], nucs[rng.Intn(4)]}
			c, err := codon.ParseCodon(string(trip))
			if err != nil || codon.Universal.IsStop(c) {
				continue
			}
			b = append(b, trip...)
		}
		seqs[i] = string(b)
	}
	return seqs
}

// parallelFixture is an 8-species fixture with ~50 codons, large
// enough that a blockSize of 8 yields multiple blocks per class.
func parallelFixture(t testing.TB) *fixture {
	names := []string{"A", "B", "C", "D", "E", "F", "G", "H"}
	seqs := randomAlignment(t, names, 50, 7)
	return makeFixture(t,
		"(((A:0.2,B:0.15)#1:0.1,(C:0.3,D:0.25):0.05):0.1,((E:0.2,F:0.1):0.15,(G:0.05,H:0.3):0.2):0.1);",
		names, seqs, bsm.H1, h1Params())
}

// modelFor builds each supported model family on the fixture's data,
// exercising 1-, 2-, 3- and 4-class mixtures.
func modelsFor(t *testing.T, f *fixture) map[string]Model {
	t.Helper()
	pi, err := codon.F61(codon.Universal, f.pats.CountCodonsCompressed())
	if err != nil {
		t.Fatal(err)
	}
	m0, err := sitemodel.NewM0(codon.Universal, 2.1, 0.35, pi)
	if err != nil {
		t.Fatal(err)
	}
	m1a, err := sitemodel.NewM1a(codon.Universal, 2.1, 0.2, 0.6, pi)
	if err != nil {
		t.Fatal(err)
	}
	m2a, err := sitemodel.NewM2a(codon.Universal, 2.1, 0.2, 2.4, 0.55, 0.3, pi)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]Model{
		"M0":          m0,
		"M1a":         m1a,
		"M2a":         m2a,
		"branch-site": f.model,
	}
}

// The tentpole determinism guarantee: the block-pool engine produces
// bit-identical log-likelihoods to the serial path for every worker
// count, every apply mode, and every model family.
func TestBlockPoolBitIdenticalToSerial(t *testing.T) {
	f := parallelFixture(t)
	models := modelsFor(t, f)
	applies := []ApplyMode{ApplyPerSiteGEMV, ApplyPerSiteSYMV, ApplyBundled}
	workerCounts := []int{1, 2, runtime.NumCPU()}

	for name, m := range models {
		for _, apply := range applies {
			base := Config{PMethod: expm.MethodSYRK, Apply: apply}
			serial, err := New(f.tree, f.pats, f.names, base)
			if err != nil {
				t.Fatal(err)
			}
			if err := serial.SetModel(m); err != nil {
				t.Fatal(err)
			}
			want := serial.LogLikelihood()
			if math.IsNaN(want) {
				t.Fatalf("%s: serial lnL is NaN", name)
			}

			for _, workers := range workerCounts {
				cfg := base
				cfg.Workers = workers
				cfg.blockSize = 8 // force multiple blocks
				e, err := New(f.tree, f.pats, f.names, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if err := e.SetModel(m); err != nil {
					t.Fatal(err)
				}
				got := e.LogLikelihood()
				e.Close()
				if got != want {
					t.Errorf("%s apply=%d workers=%d: %0.17g != serial %0.17g",
						name, apply, workers, got, want)
				}
			}
		}
	}
}

// Block size must not influence the result at all — tiles are a pure
// scheduling choice.
func TestBlockSizeInvariance(t *testing.T) {
	f := parallelFixture(t)
	ref := math.NaN()
	for _, bs := range []int{1, 3, 8, 1 << 20} {
		cfg := Config{Apply: ApplyBundled, Workers: 3, blockSize: bs}
		e := f.engine(t, cfg)
		got := e.LogLikelihood()
		e.Close()
		if math.IsNaN(ref) {
			ref = got
			continue
		}
		if got != ref {
			t.Fatalf("blockSize=%d changed lnL: %0.17g != %0.17g", bs, got, ref)
		}
	}
}

// The parallel single-branch path update must stay bit-identical to
// the serial one and agree with a full re-evaluation.
func TestBlockPoolBranchUpdate(t *testing.T) {
	f := parallelFixture(t)
	for _, apply := range []ApplyMode{ApplyPerSiteGEMV, ApplyPerSiteSYMV, ApplyBundled} {
		serial := f.engine(t, Config{Apply: apply})
		serial.LogLikelihood()
		par := f.engine(t, Config{Apply: apply, Workers: 4, blockSize: 8})
		par.LogLikelihood()
		lens := serial.BranchLengths()
		for _, v := range serial.BranchIDs() {
			newLen := lens[v]*1.4 + 0.02
			want := serial.BranchLogLikelihood(v, newLen)
			got := par.BranchLogLikelihood(v, newLen)
			if got != want {
				t.Fatalf("apply=%d branch %d: parallel path update %0.17g != serial %0.17g",
					apply, v, got, want)
			}
		}
		par.Close()
	}
}

// A shared pool must serve several engines evaluating concurrently
// without altering any result — the batch driver's execution shape.
func TestSharedPoolConcurrentEngines(t *testing.T) {
	f := parallelFixture(t)
	serial := f.engine(t, Config{})
	want := serial.LogLikelihood()

	pool := NewPool(4)
	defer pool.Close()
	const engines = 6
	got := make([]float64, engines)
	var wg sync.WaitGroup
	for i := 0; i < engines; i++ {
		e := f.engine(t, Config{Pool: pool, blockSize: 8})
		wg.Add(1)
		go func(i int, e *Engine) {
			defer wg.Done()
			// Several evaluations to interleave tile batches.
			for k := 0; k < 3; k++ {
				got[i] = e.LogLikelihood()
			}
		}(i, e)
	}
	wg.Wait()
	for i, g := range got {
		if g != want {
			t.Fatalf("engine %d on shared pool: %0.17g != serial %0.17g", i, g, want)
		}
	}
}

// Posteriors (the NEB path) must not depend on the execution strategy.
func TestBlockPoolPosteriorsMatchSerial(t *testing.T) {
	f := parallelFixture(t)
	serial := f.engine(t, Config{})
	par := f.engine(t, Config{Workers: 3, blockSize: 8})
	defer par.Close()
	_, want := serial.LogLikelihoodAndPosteriors()
	_, got := par.LogLikelihoodAndPosteriors()
	for p := range want {
		for c := range want[p] {
			if got[p][c] != want[p][c] {
				t.Fatalf("pattern %d class %d: posterior %g != %g", p, c, got[p][c], want[p][c])
			}
		}
	}
}

// The decomposition cache must eliminate repeated eigendecompositions
// for repeated parameters without changing any likelihood.
func TestDecompCacheReuse(t *testing.T) {
	f := smallFixture(t, bsm.H1, h1Params())
	cache := NewDecompCache(16)

	e1, err := New(f.tree, f.pats, f.names, Config{Decomps: cache})
	if err != nil {
		t.Fatal(err)
	}
	if err := e1.SetModel(f.model); err != nil {
		t.Fatal(err)
	}
	if e1.Stats().Eigendecompositions != 3 {
		t.Fatalf("cold cache: %d decompositions, want 3", e1.Stats().Eigendecompositions)
	}
	want := e1.LogLikelihood()

	// Re-installing the same model must hit the cache for every slot.
	if err := e1.SetModel(f.model); err != nil {
		t.Fatal(err)
	}
	if e1.Stats().Eigendecompositions != 3 {
		t.Fatalf("warm cache recomputed: %d decompositions", e1.Stats().Eigendecompositions)
	}

	// A second engine sharing the cache pays zero decompositions.
	e2, err := New(f.tree, f.pats, f.names, Config{Decomps: cache})
	if err != nil {
		t.Fatal(err)
	}
	if err := e2.SetModel(f.model); err != nil {
		t.Fatal(err)
	}
	if e2.Stats().Eigendecompositions != 0 {
		t.Fatalf("shared cache: second engine did %d decompositions", e2.Stats().Eigendecompositions)
	}
	if got := e2.LogLikelihood(); got != want {
		t.Fatalf("cached decompositions changed lnL: %0.17g != %0.17g", got, want)
	}
	hits, _ := cache.Stats()
	if hits == 0 {
		t.Fatal("cache recorded no hits")
	}
}

// The cache must evict beyond its capacity and never grow unboundedly.
func TestDecompCacheEviction(t *testing.T) {
	pi := codon.UniformFrequencies(codon.Universal)
	cache := NewDecompCache(2)
	for i := 0; i < 5; i++ {
		rate, err := codon.NewRate(codon.Universal, 2, 0.1+0.1*float64(i), pi)
		if err != nil {
			t.Fatal(err)
		}
		d, err := expm.Decompose(rate.S, rate.Pi)
		if err != nil {
			t.Fatal(err)
		}
		cache.Put(rate, d)
	}
	if cache.Len() != 2 {
		t.Fatalf("cache holds %d entries, capacity 2", cache.Len())
	}
}

// Two genetic codes with identical (κ, ω, π) must not collide in the
// cache: the exchangeability structure follows the code, so a
// decomposition cached under one code would be wrong under another.
// This makes one cache safe for mixed-code manifests.
func TestDecompCacheCodeIdentity(t *testing.T) {
	clone := codon.NewCode("universal-clone", codon.Universal.AminoAcids())
	r1, err := codon.NewRate(codon.Universal, 2, 0.5, codon.UniformFrequencies(codon.Universal))
	if err != nil {
		t.Fatal(err)
	}
	// Same κ and ω; the clone has the same 61 sense codons, so the
	// uniform π vectors are element-for-element identical.
	r2, err := codon.NewRate(clone, 2, 0.5, codon.UniformFrequencies(clone))
	if err != nil {
		t.Fatal(err)
	}
	cache := NewDecompCache(4)
	d1, err := expm.Decompose(r1.S, r1.Pi)
	if err != nil {
		t.Fatal(err)
	}
	cache.Put(r1, d1)
	if got := cache.Get(r2); got != nil {
		t.Fatal("decomposition cached under one genetic code served another code with identical (κ, ω, π)")
	}
	if got := cache.Get(r1); got != d1 {
		t.Fatal("cache lost the original code's entry")
	}
}

// Close must be idempotent, for both engine-owned and shared pools.
func TestPoolCloseIdempotent(t *testing.T) {
	f := smallFixture(t, bsm.H1, h1Params())
	e := f.engine(t, Config{Workers: 2})
	e.LogLikelihood()
	e.Close()
	e.Close()

	p := NewPool(2)
	p.Close()
	p.Close()
}

// An engine with more workers than patterns (tiny data) must still be
// correct — tiles degrade gracefully.
func TestBlockPoolTinyAlignment(t *testing.T) {
	f := smallFixture(t, bsm.H1, h1Params())
	serial := f.engine(t, Config{})
	want := serial.LogLikelihood()
	e := f.engine(t, Config{Workers: 8, blockSize: 1})
	defer e.Close()
	if got := e.LogLikelihood(); got != want {
		t.Fatalf("tiny alignment: %0.17g != %0.17g", got, want)
	}
}

func TestDefaultTreeParse(t *testing.T) {
	// Guard the fixture's newick string (8 species, one #1 mark).
	tr, err := newick.Parse("(((A:0.2,B:0.15)#1:0.1,(C:0.3,D:0.25):0.05):0.1,((E:0.2,F:0.1):0.15,(G:0.05,H:0.3):0.2):0.1);")
	if err != nil {
		t.Fatal(err)
	}
	if got := len(tr.ForegroundBranches()); got != 1 {
		t.Fatalf("fixture tree has %d foreground branches", got)
	}
}
