package blas

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/mat"
)

// TestSetKernel: the shim kept for callers of the removed process-wide
// switch accepts the two names that switch knew, refuses any other,
// and never changes which kernel ActiveKernel reports.
func TestSetKernel(t *testing.T) {
	for _, name := range []string{"naive", "blocked"} {
		if err := SetKernel(name); err != nil {
			t.Fatalf("SetKernel(%q): %v", name, err)
		}
		if got := ActiveKernel().Name(); got != "blocked" {
			t.Fatalf("ActiveKernel() = %q after SetKernel(%q), want blocked", got, name)
		}
	}
	if err := SetKernel("no-such-kernel"); err == nil {
		t.Fatal("SetKernel accepted an unknown kernel name")
	}
	if got := ActiveKernel().Name(); got != "blocked" {
		t.Fatalf("ActiveKernel() = %q after a refused SetKernel, want blocked", got)
	}
}

func TestDgemmNTRowsPackedUnpackedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("DgemmNTRowsPacked with an unpacked PackedB did not panic")
		}
	}()
	c := mat.New(1, 1)
	a := mat.New(1, 0)
	DgemmNTRowsPacked(1, a, &PackedB{}, 0, c, 0, 1)
}

// TestKernelConcurrentUse drives both kernels the way the parallel
// engine does — many goroutines computing disjoint row ranges of a
// shared C against a shared A and one shared PackedB, plus unpacked
// calls exercising the scratch pools concurrently — and checks the
// result is bit-identical to a serial full-range call. Run under
// -race this doubles as the data-race check for the pool scratch.
func TestKernelConcurrentUse(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	const m, n, k, workers = 128, 61, 61, 8
	a := strided(rng, m, k, 0)
	b := strided(rng, n, k, 0)
	for _, kr := range conformKernels() {
		want := mat.New(m, n)
		kr.DgemmNTRows(1, a, b, 0, want, 0, m)
		var pb PackedB
		kr.PackB(b, &pb)

		gotPacked := mat.New(m, n)
		gotUnpacked := mat.New(m, n)
		var wg sync.WaitGroup
		chunk := (m + workers - 1) / workers
		for w := 0; w < workers; w++ {
			lo := w * chunk
			hi := lo + chunk
			if hi > m {
				hi = m
			}
			wg.Add(1)
			go func(lo, hi int) {
				defer wg.Done()
				kr.DgemmNTRowsPacked(1, a, &pb, 0, gotPacked, lo, hi)
				kr.DgemmNTRows(1, a, b, 0, gotUnpacked, lo, hi)
			}(lo, hi)
		}
		wg.Wait()
		requireBitEqual(t, gotPacked, want, "kernel %s concurrent packed", kr.Name())
		requireBitEqual(t, gotUnpacked, want, "kernel %s concurrent unpacked", kr.Name())
	}
}
