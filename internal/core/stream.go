package core

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/codon"
	"repro/internal/lik"
	"repro/internal/obs"
	"repro/internal/persistcache"
)

// GeneSource yields the genes of a batch one at a time, so a
// collection never has to be materialized: Next returns (nil, nil)
// after the final gene. The driver calls Next from a single goroutine,
// so implementations need not be concurrency-safe. An error from Next
// aborts the whole stream; per-gene *analysis* failures, by contrast,
// are recorded in that gene's result and the run continues.
type GeneSource interface {
	Next() (*Gene, error)
}

// ReplayableSource is a GeneSource that can restart from the first
// gene. The shared-frequency path requires it: pass one streams the
// pooled codon counts, pass two runs the fits.
type ReplayableSource interface {
	GeneSource
	Reset() error
}

// ResultSink consumes per-gene results. RunBatchStream delivers
// results in source order, exactly once per gene, from a single
// goroutine. A Write error aborts the stream.
type ResultSink interface {
	Write(GeneResult) error
}

// SliceSource adapts an in-memory gene slice to the streaming driver.
// It yields pointers into the slice, so the per-gene encode cache
// (Gene.Patterns) persists across the shared-frequency pre-pass and
// the fits.
type SliceSource struct {
	genes []Gene
	next  int
}

// NewSliceSource returns a replayable source over the slice.
func NewSliceSource(genes []Gene) *SliceSource { return &SliceSource{genes: genes} }

// Next yields a pointer to the next gene in the slice.
func (s *SliceSource) Next() (*Gene, error) {
	if s.next >= len(s.genes) {
		return nil, nil
	}
	g := &s.genes[s.next]
	s.next++
	return g, nil
}

// Reset rewinds to the first gene.
func (s *SliceSource) Reset() error {
	s.next = 0
	return nil
}

// streamCacheEntries caps the eigendecomposition cache a stream makes
// for itself (entries). The cache is exact, so its size changes speed,
// never a result.
const streamCacheEntries = 256

// StreamOptions configures RunBatchStream.
type StreamOptions struct {
	BatchOptions
	// Prefetch bounds the number of genes resident at once — loaded
	// from the source but not yet delivered to the sink, including the
	// ones being fitted and any finished results waiting for in-order
	// delivery. 0 selects 2×Concurrency. Peak alignment memory is
	// O(Prefetch), independent of the collection size.
	Prefetch int
	// Pool, when non-nil, is an externally owned worker pool the
	// stream's engines share — the job service runs every job on one.
	// PoolWorkers is then ignored and the pool is not closed when the
	// stream ends.
	Pool *lik.Pool
	// Decomps, when non-nil, is an externally owned eigendecomposition
	// cache shared across streams; otherwise the stream makes its own
	// of streamCacheEntries entries. The summary's hit/miss counts
	// report only this stream's deltas.
	Decomps *lik.DecompCache
	// Persist, when non-nil, is the cross-run warm cache: sources that
	// support it (ManifestSource) replay already-stored results
	// byte-identically instead of fitting, and successful fits are
	// stored back.
	Persist *persistcache.Store
	// PersistFingerprint is the options fingerprint store entries are
	// keyed under — checkpoint.OptionsFingerprint of this run's options.
	// The stream appends the resolved π digest itself, so callers pass
	// the base fingerprint whether or not shared frequencies are in
	// play.
	PersistFingerprint string
	// Metrics, when non-nil, receives the stream's instrumentation:
	// per-gene fit-latency histograms, prefetch-window occupancy, and
	// delivery/replay counters (the slimcodeml_stream_*
	// series). nil costs nothing — and either way instrumentation only
	// observes, so output bytes are identical with and without it
	// (TestStreamMetricsParity).
	Metrics *obs.Registry
}

// StreamSummary aggregates a streaming run; the per-gene results have
// already gone to the sink.
type StreamSummary struct {
	// Genes counts results delivered to the sink.
	Genes int
	// Failed counts delivered results carrying an error.
	Failed int
	// CacheHits / CacheMisses report the shared eigendecomposition
	// cache's effectiveness.
	CacheHits, CacheMisses int
	// Replayed counts genes delivered from the persistent result store
	// without any fitting (zero optimizer iterations, zero
	// eigendecompositions).
	Replayed int
	Runtime  time.Duration
}

// RunBatchStream runs the full branch-site test on every gene the
// source yields, delivering results to the sink in source order. It is
// the batch driver: it holds at most Prefetch genes — a producer
// goroutine pulls genes through a bounded window, Concurrency workers
// fit them (sharing one persistent likelihood worker pool and one
// eigendecomposition cache), and a serial collector reorders finished
// results for the sink. A gene's window slot is released only after
// its result reaches the sink, so the bound covers queued, in-flight
// and reorder-pending genes alike.
//
// Per-gene results are bit-identical to a sequential Analysis.Run with
// the same Options: the streaming machinery reorders independent work,
// never the arithmetic.
//
// Cancelling ctx aborts the stream: no new gene starts fitting, results
// not yet delivered are discarded, and the run returns an error
// wrapping ctx.Err() once in-flight fits drain. Results already
// delivered to the sink always form a prefix of the source order — the
// invariant the checkpoint ledger builds on — because delivery is
// in-order and simply stops early.
func RunBatchStream(ctx context.Context, src GeneSource, sink ResultSink, opts StreamOptions) (*StreamSummary, error) {
	if src == nil || sink == nil {
		return nil, fmt.Errorf("core: RunBatchStream needs a source and a sink")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	opts.fill()
	conc := opts.Concurrency
	if conc <= 0 {
		conc = runtime.GOMAXPROCS(0)
	}
	prefetch := opts.Prefetch
	if prefetch <= 0 {
		prefetch = 2 * conc
	}

	geneOpts := opts.Options
	geneOpts.pool = opts.Pool
	if geneOpts.pool == nil {
		geneOpts.pool = lik.NewPool(opts.PoolWorkers)
		defer geneOpts.pool.Close()
	}
	cache := opts.Decomps
	if cache == nil {
		cache = lik.NewDecompCache(streamCacheEntries)
	}
	geneOpts.decomps = cache
	hits0, misses0 := cache.Stats()

	// ShareFrequencies with Frequencies already fixed (a resumed run
	// replaying the π its ledger recorded) skips the pre-pass: the
	// stored vector is bit-identical to what the pass would recompute.
	if opts.ShareFrequencies && geneOpts.Frequencies == nil {
		rs, ok := src.(ReplayableSource)
		if !ok {
			return nil, fmt.Errorf("core: ShareFrequencies needs a ReplayableSource (the pooled-count pass reads every gene before the first fit)")
		}
		pi, err := streamedFrequencies(ctx, rs, &geneOpts)
		if err != nil {
			return nil, err
		}
		geneOpts.Frequencies = pi
	}

	// With a persistent store attached, finalize the fingerprint results
	// are keyed under — base options plus the resolved π digest — and
	// hand the store to the source (replay lookups) and the per-gene
	// options (storing fits back). The π component is appended here,
	// after resolution, so checkpointed and standalone shared-frequency
	// runs key identically; fan-out shards arrive with π preset and the
	// component already in the base.
	if opts.Persist != nil {
		fp := opts.PersistFingerprint
		if geneOpts.Frequencies != nil && !strings.Contains(fp, " pi=") {
			fp += " pi=" + FrequenciesDigest(geneOpts.Frequencies)
		}
		geneOpts.persist = opts.Persist
		geneOpts.persistFP = fp
		if pa, ok := src.(PersistAttacher); ok {
			pa.AttachPersist(opts.Persist, fp, false)
		}
	}

	met := newStreamMetrics(opts.Metrics, prefetch)

	start := time.Now()
	type item struct {
		seq  int
		gene *Gene
	}
	type delivered struct {
		seq int
		res GeneResult
	}
	sem := make(chan struct{}, prefetch) // one slot per resident gene
	work := make(chan item)
	results := make(chan delivered, conc)
	abort := make(chan struct{})

	// Producer: acquire a window slot, then load the next gene. The
	// slot is held until the collector delivers the gene's result, so
	// at most prefetch genes exist between source and sink.
	var srcErr error
	go func() {
		defer close(work)
		for seq := 0; ; seq++ {
			select {
			case sem <- struct{}{}:
			case <-abort:
				return
			case <-ctx.Done():
				return
			}
			g, err := src.Next()
			if err != nil || g == nil {
				srcErr = err
				return
			}
			met.window.Inc()
			select {
			case work <- item{seq: seq, gene: g}:
			case <-abort:
				return
			case <-ctx.Done():
				return
			}
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < conc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := range work {
				// After cancellation, drain queued genes without
				// fitting them; the collector discards their absence.
				if ctx.Err() != nil {
					continue
				}
				if it.gene.replay != nil {
					// A replayed record is a lookup, not a fit; it is
					// counted at delivery, never in the fit histogram.
					results <- delivered{seq: it.seq, res: runGene(it.gene, geneOpts)}
					continue
				}
				met.inflight.Inc()
				t0 := time.Now()
				res := runGene(it.gene, geneOpts)
				met.observeFit(time.Since(t0))
				met.inflight.Dec()
				results <- delivered{seq: it.seq, res: res}
			}
		}()
	}
	go func() {
		wg.Wait()
		close(results)
	}()

	// Collector: reorder finished genes and write them in source
	// order. Runs on the calling goroutine, so the sink sees a single
	// writer. After a sink error the remaining in-flight genes are
	// drained (their results discarded) so the goroutines exit.
	sum := &StreamSummary{}
	var sinkErr error
	stopped := false // sink error or cancellation: drain without writing
	pending := make(map[int]GeneResult)
	nextSeq := 0
	for d := range results {
		if stopped {
			continue
		}
		if ctx.Err() != nil {
			stopped = true
			continue
		}
		pending[d.seq] = d.res
		for {
			r, ok := pending[nextSeq]
			if !ok {
				break
			}
			delete(pending, nextSeq)
			if err := sink.Write(r); err != nil {
				sinkErr = fmt.Errorf("core: result sink: %w", err)
				close(abort)
				stopped = true
				break
			}
			nextSeq++
			sum.Genes++
			if r.Err != nil {
				sum.Failed++
			}
			if r.Rec != nil {
				sum.Replayed++
			}
			met.observeDelivery(r)
			<-sem
			met.window.Dec()
		}
	}
	hits1, misses1 := cache.Stats()
	sum.CacheHits, sum.CacheMisses = hits1-hits0, misses1-misses0
	sum.Runtime = time.Since(start)
	if sinkErr != nil {
		return sum, sinkErr
	}
	if err := ctx.Err(); err != nil {
		return sum, fmt.Errorf("core: stream cancelled: %w", err)
	}
	if srcErr != nil {
		return sum, fmt.Errorf("core: gene source: %w", srcErr)
	}
	return sum, nil
}

// runGene executes one gene's full H0-vs-H1 test, reusing the gene's
// cached encode+compress product when present. A gene carrying a
// replayed record from the persistent store skips the fit entirely —
// the record is the byte-identical product of an earlier run under the
// same fingerprint and input files. A successful fit with a store
// attached is persisted back.
func runGene(g *Gene, opts Options) GeneResult {
	if g.replay != nil {
		return GeneResult{Name: g.Name, Rec: g.replay}
	}
	res := GeneResult{Name: g.Name}
	an, err := newGeneAnalysis(g, opts)
	if err != nil {
		res.Err = fmt.Errorf("gene %s: %w", g.Name, err)
		return res
	}
	defer an.Close()
	r, err := an.Run()
	if err != nil {
		res.Err = fmt.Errorf("gene %s: %w", g.Name, err)
		return res
	}
	res.Result = r
	if opts.persist != nil && g.haveMeta {
		storeResult(&opts, g, res)
	}
	return res
}

// SharedFrequencies runs the shared-frequency pre-pass on its own and
// returns the pooled π vector — what RunBatchStream computes internally
// when ShareFrequencies is set. Callers that persist π (the checkpoint
// ledger records it so a resumed run reuses the identical vector) run
// this first and pass the result via Options.Frequencies.
//
// π pools every gene src yields from its current position, then src
// is rewound. Pass the whole collection, unwrapped and before any
// persistent store is attached: a source that skips a checkpointed
// prefix or yields replayed results would pool only part of it.
func SharedFrequencies(ctx context.Context, src ReplayableSource, opts Options) ([]float64, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	opts.fill()
	return streamedFrequencies(ctx, src, &opts)
}

// streamedFrequencies is pass one of the shared-frequency path: it
// streams every gene once, pooling codon counts with the batch's Freq
// estimator, then rewinds the source. Each gene's encode+compress
// product is cached on the Gene, so sources that replay the same Gene
// values (SliceSource) encode exactly once across both passes; sources
// that reload genes from disk (ManifestSource) pay one extra read and
// encode per gene, never O(collection) memory. Genes that fail to load
// contribute nothing here and surface as error rows in the fit pass.
func streamedFrequencies(ctx context.Context, src ReplayableSource, opts *Options) ([]float64, error) {
	gc := opts.Code
	if opts.Freq == FreqUniform {
		return codon.UniformFrequencies(gc), nil
	}
	codonCounts := make([]float64, gc.NumStates())
	var nucCounts [3][4]float64
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		g, err := src.Next()
		if err != nil {
			return nil, fmt.Errorf("core: gene source: %w", err)
		}
		if g == nil {
			break
		}
		if g.loadErr != nil {
			// The gene will surface its load error as a result row in
			// pass two; it just contributes no counts to the pool.
			continue
		}
		pats, _, err := g.Patterns(gc)
		if err != nil {
			return nil, fmt.Errorf("gene %s: %w", g.Name, err)
		}
		switch opts.Freq {
		case FreqF61:
			for i, v := range pats.CountCodonsCompressed() {
				codonCounts[i] += v
			}
		case FreqF3x4:
			nc := pats.NucCountsByPositionCompressed()
			for p := range nc {
				for b := range nc[p] {
					nucCounts[p][b] += nc[p][b]
				}
			}
		default:
			return nil, fmt.Errorf("core: unknown frequency estimator %d", opts.Freq)
		}
	}
	if err := src.Reset(); err != nil {
		return nil, fmt.Errorf("core: gene source reset: %w", err)
	}
	return finishFrequencies(opts, codonCounts, nucCounts)
}

// finishFrequencies applies the selected estimator to the pooled
// counts.
func finishFrequencies(opts *Options, codonCounts []float64, nucCounts [3][4]float64) ([]float64, error) {
	switch opts.Freq {
	case FreqF61:
		return codon.F61(opts.Code, codonCounts)
	case FreqF3x4:
		return codon.F3x4(opts.Code, nucCounts)
	}
	return nil, fmt.Errorf("core: unknown frequency estimator %d", opts.Freq)
}
