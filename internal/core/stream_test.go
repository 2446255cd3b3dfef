package core

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/align"
	"repro/internal/bsm"
	"repro/internal/codon"
	"repro/internal/manifest"
	"repro/internal/newick"
	"repro/internal/sim"
)

// streamGenes simulates n small independent genes (smaller than
// batchGenes so a ≥20-gene stream stays fast under -short and -race).
func streamGenes(t *testing.T, n int) []Gene {
	t.Helper()
	genes := make([]Gene, n)
	for i := range genes {
		tree, err := sim.RandomTree(sim.TreeConfig{Species: 4, MeanBranchLength: 0.2, Seed: int64(200 + i)})
		if err != nil {
			t.Fatal(err)
		}
		aln, err := sim.Simulate(tree, codon.Universal, sim.SeqConfig{
			Sites:  24,
			Params: bsm.Params{Kappa: 2, Omega0: 0.2, Omega2: 3, P0: 0.5, P1: 0.3},
			Seed:   int64(300 + i),
		})
		if err != nil {
			t.Fatal(err)
		}
		genes[i] = Gene{Name: fmt.Sprintf("g%02d", i), Alignment: aln, Tree: tree}
	}
	return genes
}

// writeManifestDir serializes the genes to FASTA + Newick files plus a
// manifest, returning the loaded (verified) entries.
func writeManifestDir(t *testing.T, genes []Gene) []manifest.Entry {
	t.Helper()
	dir := t.TempDir()
	entries := make([]manifest.Entry, len(genes))
	for i, g := range genes {
		alnPath := filepath.Join(dir, g.Name+".fasta")
		f, err := os.Create(alnPath)
		if err != nil {
			t.Fatal(err)
		}
		if err := align.WriteFasta(f, g.Alignment); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		treePath := filepath.Join(dir, g.Name+".nwk")
		if err := os.WriteFile(treePath, []byte(g.Tree.String()+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		entries[i] = manifest.Entry{Name: g.Name, AlignPath: alnPath, TreePath: treePath}
	}
	maniPath := filepath.Join(dir, "genes.manifest")
	if err := manifest.WriteFile(maniPath, entries); err != nil {
		t.Fatal(err)
	}
	loaded, err := manifest.Load(maniPath)
	if err != nil {
		t.Fatal(err)
	}
	return loaded
}

// A ≥20-gene manifest must stream end-to-end and reproduce sequential
// per-gene Analysis.Run results bit-for-bit: the file round trip
// (FASTA, Newick %g lengths) and the streaming machinery change
// nothing.
func TestRunBatchStreamManifestMatchesSequential(t *testing.T) {
	genes := streamGenes(t, 20)
	opts := BatchOptions{
		Options:     Options{Engine: EngineSlim, MaxIterations: 1, Seed: 1},
		Concurrency: 4,
		PoolWorkers: 2,
	}
	// One independent Analysis per gene, run side by side so the
	// reference costs no more wall time than the stream under -race.
	want := make([]*TestResult, len(genes))
	errs := make([]error, len(genes))
	var wg sync.WaitGroup
	for i, g := range genes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			an, err := NewAnalysis(g.Alignment, g.Tree, opts.Options)
			if err == nil {
				want[i], err = an.Run()
			}
			errs[i] = err
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	entries := writeManifestDir(t, genes)
	var col CollectSink
	sum, err := RunBatchStream(context.Background(), NewManifestSource(entries, align.FormatAuto), &col,
		StreamOptions{BatchOptions: opts, Prefetch: 5})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Genes != len(genes) || sum.Failed != 0 {
		t.Fatalf("summary: %d genes, %d failed; want %d, 0", sum.Genes, sum.Failed, len(genes))
	}
	got := col.Results()
	if len(got) != len(genes) {
		t.Fatalf("sink received %d results, want %d", len(got), len(genes))
	}
	for i, g := range got {
		if g.Name != genes[i].Name {
			t.Fatalf("result %d out of order: %s, want %s", i, g.Name, genes[i].Name)
		}
		if g.Err != nil {
			t.Fatalf("gene %s: %v", g.Name, g.Err)
		}
		w := want[i]
		if g.Result.H0.LnL != w.H0.LnL || g.Result.H1.LnL != w.H1.LnL {
			t.Fatalf("gene %s: stream lnL (%0.17g, %0.17g) != sequential (%0.17g, %0.17g)",
				g.Name, g.Result.H0.LnL, g.Result.H1.LnL, w.H0.LnL, w.H1.LnL)
		}
	}
}

// countingSource tracks how many genes are resident — yielded by Next
// but not yet released by the sink — and the maximum ever reached.
type countingSource struct {
	mu       sync.Mutex
	genes    []Gene
	next     int
	alive    int
	maxAlive int
}

func (s *countingSource) Next() (*Gene, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.next >= len(s.genes) {
		return nil, nil
	}
	g := &s.genes[s.next]
	s.next++
	s.alive++
	if s.alive > s.maxAlive {
		s.maxAlive = s.alive
	}
	return g, nil
}

func (s *countingSource) release() {
	s.mu.Lock()
	s.alive--
	s.mu.Unlock()
}

// countingSink releases the source's residency count on delivery and
// records the delivery order.
type countingSink struct {
	src   *countingSource
	names []string
	errs  int
}

func (s *countingSink) Write(r GeneResult) error {
	s.src.release()
	s.names = append(s.names, r.Name)
	if r.Err != nil {
		s.errs++
	}
	return nil
}

// The prefetch window must bound resident genes for the whole
// source→sink pipeline (queued, fitting, and reorder-pending alike),
// and delivery must follow source order regardless of concurrency.
func TestRunBatchStreamBoundedPrefetchAndOrdering(t *testing.T) {
	// Fast-failing genes (unmarked tree → NewAnalysis error) keep the
	// test cheap while still exercising the full pipeline with heavy
	// gene turnover.
	tree, err := newick.Parse("(A:0.1,B:0.2,C:0.3);")
	if err != nil {
		t.Fatal(err)
	}
	const n, prefetch = 40, 3
	genes := make([]Gene, n)
	for i := range genes {
		genes[i] = Gene{
			Name:      fmt.Sprintf("g%02d", i),
			Alignment: &align.Alignment{Names: []string{"A", "B", "C"}, Seqs: []string{"ATG", "ATG", "ATG"}},
			Tree:      tree,
		}
	}
	src := &countingSource{genes: genes}
	sink := &countingSink{src: src}
	sum, err := RunBatchStream(context.Background(), src, sink, StreamOptions{
		BatchOptions: BatchOptions{
			Options:     Options{Engine: EngineSlim, MaxIterations: 1, Seed: 1},
			Concurrency: 8,
			PoolWorkers: 1,
		},
		Prefetch: prefetch,
	})
	if err != nil {
		t.Fatal(err)
	}
	if src.maxAlive > prefetch {
		t.Fatalf("prefetch bound violated: %d genes resident, limit %d", src.maxAlive, prefetch)
	}
	if sum.Genes != n || sum.Failed != n || sink.errs != n {
		t.Fatalf("summary: %d genes, %d failed (sink saw %d); want all %d failed", sum.Genes, sum.Failed, sink.errs, n)
	}
	for i, name := range sink.names {
		if want := fmt.Sprintf("g%02d", i); name != want {
			t.Fatalf("delivery %d out of order: %s, want %s", i, name, want)
		}
	}
}

// The shared-frequency path must run EncodeCodons+Compress exactly
// once per gene: the pooled-count pre-pass caches its product and the
// fit reuses it (previously each gene was encoded twice).
func TestRunBatchShareFrequenciesEncodesOnce(t *testing.T) {
	genes := streamGenes(t, 3)
	_, batch := runSlice(t, genes, BatchOptions{
		Options:          Options{Engine: EngineSlim, MaxIterations: 2, Seed: 1},
		ShareFrequencies: true,
	})
	if batch.Failed != 0 {
		t.Fatalf("batch reported %d failures", batch.Failed)
	}
	for i := range genes {
		if got := genes[i].encodes; got != 1 {
			t.Fatalf("gene %s encoded %d times, want exactly 1", genes[i].Name, got)
		}
	}
}

// A gene whose files fail to load mid-stream (corrupt content slips
// past manifest.Load's existence check) must cost one error row, not
// the run — including under the two-pass shared-frequency path.
func TestRunBatchStreamBadGeneFileContinues(t *testing.T) {
	genes := streamGenes(t, 2)
	entries := writeManifestDir(t, genes)
	if err := os.WriteFile(entries[0].AlignPath, []byte("not an alignment\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var col CollectSink
	sum, err := RunBatchStream(context.Background(), NewManifestSource(entries, align.FormatAuto), &col, StreamOptions{
		BatchOptions: BatchOptions{
			Options:          Options{Engine: EngineSlim, MaxIterations: 1, Seed: 1},
			ShareFrequencies: true,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Genes != 2 || sum.Failed != 1 {
		t.Fatalf("summary: %d genes, %d failed; want 2, 1", sum.Genes, sum.Failed)
	}
	got := col.Results()
	if got[0].Err == nil {
		t.Fatal("corrupt gene carried no error")
	}
	if got[1].Err != nil || got[1].Result == nil {
		t.Fatalf("healthy gene failed: %v", got[1].Err)
	}
}

// nonReplayableSource hides SliceSource's Reset.
type nonReplayableSource struct{ s *SliceSource }

func (n *nonReplayableSource) Next() (*Gene, error) { return n.s.Next() }

// ShareFrequencies needs two passes, so a source that cannot rewind
// must be rejected up front instead of producing wrong frequencies.
func TestRunBatchStreamShareFrequenciesNeedsReplayable(t *testing.T) {
	genes := streamGenes(t, 1)
	var col CollectSink
	_, err := RunBatchStream(context.Background(), &nonReplayableSource{s: NewSliceSource(genes)}, &col, StreamOptions{
		BatchOptions: BatchOptions{
			Options:          Options{Engine: EngineSlim, MaxIterations: 1, Seed: 1},
			ShareFrequencies: true,
		},
	})
	if err == nil {
		t.Fatal("non-replayable source accepted with ShareFrequencies")
	}
}

// failingSink errors on the first write.
type failingSink struct{ writes int }

func (s *failingSink) Write(GeneResult) error {
	s.writes++
	return fmt.Errorf("disk full")
}

// A sink error must abort the stream promptly (no hang, no further
// writes) and surface as the run's error.
func TestRunBatchStreamSinkError(t *testing.T) {
	genes := streamGenes(t, 4)
	sink := &failingSink{}
	_, err := RunBatchStream(context.Background(), NewSliceSource(genes), sink, StreamOptions{
		BatchOptions: BatchOptions{
			Options:     Options{Engine: EngineSlim, MaxIterations: 1, Seed: 1},
			Concurrency: 2,
		},
	})
	if err == nil {
		t.Fatal("sink error not surfaced")
	}
	if sink.writes != 1 {
		t.Fatalf("sink written %d times after first error, want 1", sink.writes)
	}
}

// An empty source is a valid (zero-gene) stream.
func TestRunBatchStreamEmptySource(t *testing.T) {
	var col CollectSink
	sum, err := RunBatchStream(context.Background(), NewSliceSource(nil), &col, StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Genes != 0 || len(col.Results()) != 0 {
		t.Fatalf("empty source produced %d results", sum.Genes)
	}
}

// A source error must abort the stream and surface after in-flight
// genes drain.
func TestRunBatchStreamSourceError(t *testing.T) {
	genes := streamGenes(t, 2)
	src := &erroringSource{s: NewSliceSource(genes), failAt: 1}
	var col CollectSink
	_, err := RunBatchStream(context.Background(), src, &col, StreamOptions{
		BatchOptions: BatchOptions{Options: Options{Engine: EngineSlim, MaxIterations: 1, Seed: 1}},
	})
	if err == nil {
		t.Fatal("source error not surfaced")
	}
}

type erroringSource struct {
	s      *SliceSource
	failAt int
	served int
}

func (e *erroringSource) Next() (*Gene, error) {
	if e.served == e.failAt {
		return nil, fmt.Errorf("corrupt shard")
	}
	e.served++
	return e.s.Next()
}

// cancellingSink cancels its context after k writes.
type cancellingSink struct {
	cancel  context.CancelFunc
	after   int
	results []GeneResult
}

func (s *cancellingSink) Write(r GeneResult) error {
	s.results = append(s.results, r)
	if len(s.results) == s.after {
		s.cancel()
	}
	return nil
}

// Cancelling the context must stop the stream promptly (no new gene
// starts fitting), surface as an error wrapping context.Canceled, and
// leave the delivered results an exact prefix of source order — the
// invariant checkpoint resume builds on.
func TestRunBatchStreamCancellation(t *testing.T) {
	genes := streamGenes(t, 12)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sink := &cancellingSink{cancel: cancel, after: 3}
	sum, err := RunBatchStream(ctx, NewSliceSource(genes), sink, StreamOptions{
		BatchOptions: BatchOptions{
			Options:     Options{Engine: EngineSlim, MaxIterations: 1, Seed: 1},
			Concurrency: 2,
			PoolWorkers: 1,
		},
		Prefetch: 3,
	})
	if err == nil {
		t.Fatal("cancellation not surfaced")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error does not wrap context.Canceled: %v", err)
	}
	if len(sink.results) < sink.after || len(sink.results) >= len(genes) {
		t.Fatalf("sink saw %d results; want in [%d, %d)", len(sink.results), sink.after, len(genes))
	}
	if sum.Genes != len(sink.results) {
		t.Fatalf("summary counts %d genes, sink saw %d", sum.Genes, len(sink.results))
	}
	for i, r := range sink.results {
		if r.Name != genes[i].Name {
			t.Fatalf("delivered results not a source-order prefix: position %d is %s, want %s", i, r.Name, genes[i].Name)
		}
	}
}

// A cancelled context must also abort the shared-frequency pre-pass.
func TestRunBatchStreamCancelledBeforeStart(t *testing.T) {
	genes := streamGenes(t, 2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var col CollectSink
	_, err := RunBatchStream(ctx, NewSliceSource(genes), &col, StreamOptions{
		BatchOptions: BatchOptions{
			Options:          Options{Engine: EngineSlim, MaxIterations: 1, Seed: 1},
			ShareFrequencies: true,
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled stream returned %v", err)
	}
	if len(col.Results()) != 0 {
		t.Fatalf("pre-cancelled stream delivered %d results", len(col.Results()))
	}
}
