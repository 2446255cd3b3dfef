package lik

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/align"
	"repro/internal/bsm"
	"repro/internal/codon"
	"repro/internal/expm"
	"repro/internal/newick"
)

// workerCountsUnderTest is the satellite contract: pooled execution
// must be bit-identical to serial for 1, 2 and GOMAXPROCS workers.
func workerCountsUnderTest() []int {
	return []int{1, 2, runtime.GOMAXPROCS(0)}
}

// The pooled transition phase must be bit-identical to the serial
// path: after a full-gradient-style re-install (every branch dirtied
// at once, then SetModel re-installed), LogLikelihood and every
// branch's BranchLogLikelihood agree bit-for-bit across worker counts.
func TestPooledTransitionsBitIdentical(t *testing.T) {
	f := parallelFixture(t)
	for _, apply := range []ApplyMode{ApplyPerSiteGEMV, ApplyPerSiteSYMV, ApplyBundled} {
		base := Config{Apply: apply}
		serial := f.engine(t, base)
		serial.LogLikelihood()

		// Dirty every branch, the shape of an optimizer gradient step.
		dirtyAll := func(e *Engine) {
			lens := e.BranchLengths()
			for _, v := range e.BranchIDs() {
				lens[v] = lens[v]*1.25 + 0.01
			}
			if err := e.SetBranchLengths(lens); err != nil {
				t.Fatal(err)
			}
		}
		dirtyAll(serial)
		want := serial.LogLikelihood()

		for _, workers := range workerCountsUnderTest() {
			cfg := base
			cfg.Workers = workers
			cfg.blockSize = 8
			e := f.engine(t, cfg)
			e.LogLikelihood()
			dirtyAll(e)
			if got := e.LogLikelihood(); got != want {
				t.Errorf("apply=%d workers=%d: pooled full-dirty refresh %0.17g != serial %0.17g",
					apply, workers, got, want)
			}
			// Re-installing the model dirties everything again; the
			// pooled SetModel decompositions + transition rebuilds must
			// not move a single bit either.
			if err := e.SetModel(f.model); err != nil {
				t.Fatal(err)
			}
			if got := e.LogLikelihood(); got != want {
				t.Errorf("apply=%d workers=%d: pooled SetModel re-install %0.17g != serial %0.17g",
					apply, workers, got, want)
			}
			for _, v := range e.BranchIDs() {
				newLen := e.BranchLengths()[v]*1.1 + 0.005
				if got, w := e.BranchLogLikelihood(v, newLen), serial.BranchLogLikelihood(v, newLen); got != w {
					t.Fatalf("apply=%d workers=%d branch %d: %0.17g != serial %0.17g",
						apply, workers, v, got, w)
				}
			}
			e.Close()
		}
	}
}

// Two engines sharing one pool must be able to refresh their
// transition matrices concurrently — the batch driver's shape during
// simultaneous gradient steps — without races (the CI race pass runs
// this) or any change in results.
func TestSharedPoolConcurrentTransitionRefresh(t *testing.T) {
	f := parallelFixture(t)
	serial := f.engine(t, Config{})
	want := serial.LogLikelihood()

	pool := NewPool(4)
	defer pool.Close()
	const engines = 4
	got := make([]float64, engines)
	var wg sync.WaitGroup
	for i := 0; i < engines; i++ {
		e := f.engine(t, Config{Pool: pool, blockSize: 8})
		wg.Add(1)
		go func(i int, e *Engine) {
			defer wg.Done()
			lens := e.BranchLengths()
			for k := 0; k < 3; k++ {
				// Dirty all branches, rebuild pooled, restore, rebuild
				// again: transition tasks from both engines interleave
				// on the shared workers and their workspaces.
				orig := append([]float64(nil), lens...)
				for _, v := range e.BranchIDs() {
					lens[v] = lens[v]*1.5 + 0.02
				}
				if err := e.SetBranchLengths(lens); err != nil {
					t.Error(err)
					return
				}
				e.RefreshTransitions()
				copy(lens, orig)
				if err := e.SetBranchLengths(lens); err != nil {
					t.Error(err)
					return
				}
				got[i] = e.LogLikelihood()
			}
		}(i, e)
	}
	wg.Wait()
	for i, g := range got {
		if g != want {
			t.Fatalf("engine %d sharing the pool: %0.17g != serial %0.17g", i, g, want)
		}
	}
}

// The pool's worker-ID contract: every task sees an ID in
// [0, NumSlots), pool workers use [0, NumWorkers), and no two
// concurrently running tasks ever share an ID — the property that
// makes lock-free per-worker scratch sound, including for the
// inline-fallback submitter.
func TestPoolWorkerIDContract(t *testing.T) {
	p := NewPool(3)
	defer p.Close()
	slots := p.NumSlots()
	if slots < p.NumWorkers() {
		t.Fatalf("NumSlots %d < NumWorkers %d", slots, p.NumWorkers())
	}
	inUse := make([]atomic.Bool, slots)
	const submitters = 5
	var wg sync.WaitGroup
	for s := 0; s < submitters; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 20; round++ {
				p.Run(16, func(worker, i int) {
					if worker < 0 || worker >= slots {
						t.Errorf("worker ID %d outside [0, %d)", worker, slots)
						return
					}
					if !inUse[worker].CompareAndSwap(false, true) {
						t.Errorf("worker ID %d executed two tasks concurrently", worker)
						return
					}
					for k := 0; k < 100; k++ { // widen the race window
						_ = k * k
					}
					inUse[worker].Store(false)
				})
			}
		}()
	}
	wg.Wait()
}

// Run must index tasks exactly once each, for task counts around the
// queue capacity, and a worker's scratch must be usable from the task.
func TestPoolRunIndexesEveryTask(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	for _, n := range []int{0, 1, 2, 3, 7, 64} {
		hits := make([]atomic.Int32, max(n, 1))
		p.Run(n, func(worker, i int) {
			ws := p.Workspace(worker, 4)
			ws.Resize(4) // exercise per-worker scratch under the task's ID
			_ = p.Vec(worker, 8)
			hits[i].Add(1)
		})
		for i := 0; i < n; i++ {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("n=%d: task %d ran %d times", n, i, got)
			}
		}
	}
}

// A closed engine must remain usable serially: Close drops the owned
// pool but installs a single-slot arena, so later evaluations (which
// rebuild transitions) fall back to worker-0 execution instead of
// panicking, and still match the serial reference bit-for-bit.
func TestEngineUsableAfterClose(t *testing.T) {
	f := parallelFixture(t)
	serial := f.engine(t, Config{})
	e := f.engine(t, Config{Workers: 2, blockSize: 8})
	e.LogLikelihood()
	e.Close()

	lens := serial.BranchLengths()
	for _, v := range serial.BranchIDs() {
		lens[v] = lens[v]*1.3 + 0.01
	}
	if err := serial.SetBranchLengths(lens); err != nil {
		t.Fatal(err)
	}
	if err := e.SetBranchLengths(lens); err != nil {
		t.Fatal(err)
	}
	want := serial.LogLikelihood()
	if got := e.LogLikelihood(); got != want { // rebuilds all transitions post-Close
		t.Fatalf("closed engine: %0.17g != serial %0.17g", got, want)
	}
	if err := e.SetModel(f.model); err != nil { // decompositions post-Close
		t.Fatal(err)
	}
	if got := e.LogLikelihood(); got != want {
		t.Fatalf("closed engine after SetModel: %0.17g != serial %0.17g", got, want)
	}
}

// A pool-less engine must behave as worker 0 of its own single-slot
// arena: the arena grows lazily and serves mixed sizes.
func TestArenaResizeServesMixedSizes(t *testing.T) {
	a := expm.NewArena(1)
	small := a.At(0, 4)
	again := a.At(0, 61)
	if small != again {
		t.Fatal("arena allocated a second workspace for the same worker")
	}
	back := a.At(0, 4)
	if back != small {
		t.Fatal("arena did not reuse the grown workspace for a smaller size")
	}
}

// Engines with different state spaces (61-state universal, 60-state
// vertebrate-mitochondrial) sharing one pool must each stay
// bit-identical to their serial references: the per-worker workspaces
// re-view themselves per task as transition builds of both sizes
// interleave on the same workers.
func TestSharedPoolMixedStateSpaces(t *testing.T) {
	nwk := "((A:0.2,B:0.15)#1:0.1,(C:0.3,D:0.25):0.05);"
	names := []string{"A", "B", "C", "D"}
	// Random codons that are sense codons under BOTH codes (AGA/AGG
	// are stops in the mitochondrial code).
	rng := rand.New(rand.NewSource(11))
	nucs := "TCAG"
	const codons = 40
	seqs := make([]string, len(names))
	for i := range seqs {
		b := make([]byte, 0, 3*codons)
		for len(b) < 3*codons {
			trip := []byte{nucs[rng.Intn(4)], nucs[rng.Intn(4)], nucs[rng.Intn(4)]}
			c, err := codon.ParseCodon(string(trip))
			if err != nil || codon.Universal.IsStop(c) || codon.VertebrateMt.IsStop(c) {
				continue
			}
			b = append(b, trip...)
		}
		seqs[i] = string(b)
	}
	build := func(gc *codon.GeneticCode, cfg Config) *Engine {
		t.Helper()
		tr, err := newick.Parse(nwk)
		if err != nil {
			t.Fatal(err)
		}
		ca, err := align.EncodeCodons(&align.Alignment{Names: names, Seqs: seqs}, gc)
		if err != nil {
			t.Fatal(err)
		}
		pats := align.Compress(ca)
		pi, err := codon.F61(gc, pats.CountCodonsCompressed())
		if err != nil {
			t.Fatal(err)
		}
		m, err := bsm.New(gc, bsm.H1, h1Params(), pi)
		if err != nil {
			t.Fatal(err)
		}
		e, err := New(tr, pats, names, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.SetModel(m); err != nil {
			t.Fatal(err)
		}
		return e
	}

	want61 := build(codon.Universal, Config{}).LogLikelihood()
	want60 := build(codon.VertebrateMt, Config{}).LogLikelihood()

	pool := NewPool(2)
	defer pool.Close()
	e61 := build(codon.Universal, Config{Pool: pool, blockSize: 8})
	e60 := build(codon.VertebrateMt, Config{Pool: pool, blockSize: 8})
	var wg sync.WaitGroup
	var got61, got60 float64
	churnAndEval := func(e *Engine, got *float64) {
		defer wg.Done()
		orig := e.BranchLengths()
		for k := 0; k < 3; k++ {
			// Dirty every branch and rebuild pooled, so transition
			// tasks of both state spaces interleave on the workers.
			lens := e.BranchLengths()
			for _, v := range e.BranchIDs() {
				lens[v] *= 1.5
			}
			if err := e.SetBranchLengths(lens); err != nil {
				t.Error(err)
				return
			}
			e.RefreshTransitions()
			if err := e.SetBranchLengths(orig); err != nil {
				t.Error(err)
				return
			}
			*got = e.LogLikelihood()
		}
	}
	wg.Add(2)
	go churnAndEval(e61, &got61)
	go churnAndEval(e60, &got60)
	wg.Wait()
	if got61 != want61 {
		t.Errorf("universal engine on mixed pool: %0.17g != serial %0.17g", got61, want61)
	}
	if got60 != want60 {
		t.Errorf("mt engine on mixed pool: %0.17g != serial %0.17g", got60, want60)
	}
}
