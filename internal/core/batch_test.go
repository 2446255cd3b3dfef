package core

import (
	"context"
	"math"
	"testing"

	"repro/internal/align"
	"repro/internal/bsm"
	"repro/internal/codon"
	"repro/internal/lik"
	"repro/internal/newick"
	"repro/internal/sim"
)

// batchGenes simulates n small independent genes, each with its own
// tree and foreground branch.
func batchGenes(t *testing.T, n int) []Gene {
	t.Helper()
	genes := make([]Gene, n)
	for i := range genes {
		tree, err := sim.RandomTree(sim.TreeConfig{Species: 5, MeanBranchLength: 0.2, Seed: int64(40 + i)})
		if err != nil {
			t.Fatal(err)
		}
		aln, err := sim.Simulate(tree, codon.Universal, sim.SeqConfig{
			Sites:  30,
			Params: bsm.Params{Kappa: 2, Omega0: 0.2, Omega2: 3, P0: 0.5, P1: 0.3},
			Seed:   int64(90 + i),
		})
		if err != nil {
			t.Fatal(err)
		}
		genes[i] = Gene{Name: string(rune('a' + i)), Alignment: aln, Tree: tree}
	}
	return genes
}

// runSlice streams the in-memory genes through the batch driver and
// returns the collected results with the run's summary.
func runSlice(t *testing.T, genes []Gene, opts BatchOptions) ([]GeneResult, *StreamSummary) {
	t.Helper()
	var col CollectSink
	sum, err := RunBatchStream(context.Background(), NewSliceSource(genes), &col, StreamOptions{BatchOptions: opts})
	if err != nil {
		t.Fatal(err)
	}
	return col.Results(), sum
}

// The batch driver must reproduce sequential per-gene runs exactly:
// shared workers and the shared decomposition cache reorder work but
// never change arithmetic.
func TestRunBatchMatchesSequential(t *testing.T) {
	genes := batchGenes(t, 2)
	opts := Options{Engine: EngineSlim, MaxIterations: 5, Seed: 1}

	want := make([]float64, len(genes))
	for i, g := range genes {
		an, err := NewAnalysis(g.Alignment, g.Tree, opts)
		if err != nil {
			t.Fatal(err)
		}
		res, err := an.Run()
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res.H1.LnL
	}

	got, batch := runSlice(t, genes, BatchOptions{
		Options:     opts,
		Concurrency: 2,
		PoolWorkers: 2,
	})
	if batch.Failed != 0 {
		t.Fatalf("batch reported %d failures", batch.Failed)
	}
	for i, g := range got {
		if g.Err != nil {
			t.Fatalf("gene %s: %v", g.Name, g.Err)
		}
		if g.Name != genes[i].Name {
			t.Fatalf("result %d out of order: %s", i, g.Name)
		}
		if g.Result.H1.LnL != want[i] {
			t.Fatalf("gene %s: batch lnL %0.17g != sequential %0.17g",
				g.Name, g.Result.H1.LnL, want[i])
		}
	}
	if batch.Runtime <= 0 {
		t.Fatal("runtime not recorded")
	}
}

// Shared frequencies must hand every gene the same π vector and make
// the decomposition cache effective across genes.
func TestRunBatchSharedFrequencies(t *testing.T) {
	genes := batchGenes(t, 3)
	got, batch := runSlice(t, genes, BatchOptions{
		Options:          Options{Engine: EngineSlim, MaxIterations: 4, Seed: 1},
		ShareFrequencies: true,
	})
	if batch.Failed != 0 {
		t.Fatalf("batch reported %d failures", batch.Failed)
	}
	for _, g := range got {
		if g.Result == nil || math.IsNaN(g.Result.H1.LnL) {
			t.Fatalf("gene %s: missing result", g.Name)
		}
	}
	// Every gene starts from the same seeded parameters on the same π,
	// so at minimum the other genes' initial decompositions are cache
	// hits.
	if batch.CacheHits == 0 {
		t.Fatalf("shared-frequency batch recorded no cache hits (misses=%d)", batch.CacheMisses)
	}
}

// A failing gene must not poison the batch: its error is recorded and
// the remaining genes complete.
func TestRunBatchPartialFailure(t *testing.T) {
	genes := batchGenes(t, 2)
	// Tree without a foreground mark → NewAnalysis error.
	bad, err := newick.Parse("(A:0.1,B:0.2,C:0.3);")
	if err != nil {
		t.Fatal(err)
	}
	genes = append(genes, Gene{
		Name:      "bad",
		Alignment: &align.Alignment{Names: []string{"A", "B", "C"}, Seqs: []string{"ATG", "ATG", "ATG"}},
		Tree:      bad,
	})
	got, batch := runSlice(t, genes, BatchOptions{
		Options: Options{Engine: EngineSlim, MaxIterations: 3, Seed: 1},
	})
	if batch.Failed != 1 {
		t.Fatalf("Failed = %d, want 1", batch.Failed)
	}
	if got[2].Err == nil {
		t.Fatal("bad gene did not record an error")
	}
	for _, g := range got[:2] {
		if g.Err != nil || g.Result == nil {
			t.Fatalf("good gene %s failed: %v", g.Name, g.Err)
		}
	}
}

// The batch driver refuses to run without a source or a sink.
func TestRunBatchValidation(t *testing.T) {
	if _, err := RunBatchStream(context.Background(), nil, &CollectSink{}, StreamOptions{}); err == nil {
		t.Fatal("nil source accepted")
	}
	if _, err := RunBatchStream(context.Background(), NewSliceSource(nil), nil, StreamOptions{}); err == nil {
		t.Fatal("nil sink accepted")
	}
}

// The per-analysis Workers option must not change fit results either —
// the end-to-end determinism guarantee at the Analysis level. The gene
// has more than two default-size pattern blocks, so the parallel fit
// runs several tiles per class.
func TestAnalysisWorkersBitIdentical(t *testing.T) {
	tree, err := sim.RandomTree(sim.TreeConfig{Species: 5, MeanBranchLength: 0.2, Seed: 40})
	if err != nil {
		t.Fatal(err)
	}
	aln, err := sim.Simulate(tree, codon.Universal, sim.SeqConfig{
		Sites:  200,
		Params: bsm.Params{Kappa: 2, Omega0: 0.2, Omega2: 3, P0: 0.5, P1: 0.3},
		Seed:   90,
	})
	if err != nil {
		t.Fatal(err)
	}
	base := Options{Engine: EngineSlimBundled, MaxIterations: 4, Seed: 1}
	an, err := NewAnalysis(aln, tree, base)
	if err != nil {
		t.Fatal(err)
	}
	if n := an.NumPatterns(); n <= 2*lik.DefaultBlockSize {
		t.Fatalf("fixture has %d patterns, want more than %d (several tiles)", n, 2*lik.DefaultBlockSize)
	}
	want, err := an.Run()
	if err != nil {
		t.Fatal(err)
	}

	par := base
	par.Workers = 4
	anP, err := NewAnalysis(aln, tree, par)
	if err != nil {
		t.Fatal(err)
	}
	defer anP.Close()
	got, err := anP.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got.H0.LnL != want.H0.LnL || got.H1.LnL != want.H1.LnL {
		t.Fatalf("parallel fit diverged: H0 %0.17g vs %0.17g, H1 %0.17g vs %0.17g",
			got.H0.LnL, want.H0.LnL, got.H1.LnL, want.H1.LnL)
	}
	if got.LRT.Statistic != want.LRT.Statistic {
		t.Fatalf("LRT diverged: %0.17g vs %0.17g", got.LRT.Statistic, want.LRT.Statistic)
	}
}
