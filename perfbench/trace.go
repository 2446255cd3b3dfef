package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/align"
	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/manifest"
	"repro/internal/persistcache"
)

// span is one timed call into a layer, recorded from the benchmark's
// side of a public entry point.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = none
	Name   string `json:"name"`
	Gene   string `json:"gene,omitempty"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run writes them out.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records a span and returns its id.
func (t *tracer) add(name, gene string, parent int, start, end time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Gene: gene,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
	return id
}

// finish sets the end of a span recorded before its call returned.
func (t *tracer) finish(id int, end time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = end.Sub(t.t0).Nanoseconds()
}

// durations returns the lengths in seconds of the spans named name.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e9)
		}
	}
	return out
}

// write saves the spans as JSON lines and returns the file's path.
func (t *tracer) write(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return "", err
		}
	}
	t.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// tracedSource wraps the stream's gene source, timing each Next. It
// forwards the persistent-store attachment, so replay behaves as
// under checkpoint.Run.
type tracedSource struct {
	src  *core.ManifestSource
	tr   *tracer
	pass int // parent span
}

func (s *tracedSource) Next() (*core.Gene, error) {
	t0 := time.Now()
	g, err := s.src.Next()
	if g != nil {
		s.tr.add("core.source.next", g.Name, s.pass, t0, time.Now())
	}
	return g, err
}

func (s *tracedSource) AttachPersist(store *persistcache.Store, fingerprint string, warm bool) {
	s.src.AttachPersist(store, fingerprint, warm)
}

// tracedSink wraps the checkpoint sink (output write, fsync, ledger
// append), timing each Write and keeping the fitted results.
type tracedSink struct {
	sink    *checkpoint.Sink
	tr      *tracer
	pass    int
	mu      sync.Mutex
	results []core.GeneResult
}

func (s *tracedSink) Write(r core.GeneResult) error {
	t0 := time.Now()
	err := s.sink.Write(r)
	s.tr.add("checkpoint.sink.write", r.Name, s.pass, t0, time.Now())
	s.mu.Lock()
	s.results = append(s.results, r)
	s.mu.Unlock()
	return err
}

// runCheckpointed is checkpoint.Run for a fresh output, assembled from
// the same public parts (ledger, output, sink, manifest source, batch
// stream) so the source and the sink can be wrapped. It also returns
// the delivered results.
func (t *tracer) runCheckpointed(ctx context.Context, entries []manifest.Entry, outPath string, opts core.StreamOptions) (*core.StreamSummary, []core.GeneResult, error) {
	start := time.Now()
	pass := t.add("checkpoint.run", "", 0, start, start) // end set below
	defer func() { t.finish(pass, time.Now()) }()
	if opts.Persist != nil {
		opts.PersistFingerprint = checkpoint.OptionsFingerprint(opts.BatchOptions, align.FormatAuto)
	}
	ledger, err := checkpoint.Create(checkpoint.LedgerPath(outPath), checkpoint.Header{
		ManifestDigest: manifest.Digest(entries), Genes: len(entries),
		Options: checkpoint.RunFingerprint(opts, align.FormatAuto),
	})
	if err != nil {
		return nil, nil, err
	}
	defer ledger.Close()
	out, err := checkpoint.OpenOutput(outPath, 0)
	if err != nil {
		return nil, nil, err
	}
	defer out.Close()
	sink := &tracedSink{sink: checkpoint.NewSink(out, entries, checkpoint.Plan{}, ledger, nil), tr: t, pass: pass}
	src := &tracedSource{src: core.NewManifestSource(entries, align.FormatAuto), tr: t, pass: pass}
	sum, err := core.RunBatchStream(ctx, src, sink, opts)
	return sum, sink.results, err
}

// traceFitted runs the traced pass of a fitted workload and measures
// the per-layer metrics. m holds the untraced pass it is compared to.
func traceFitted(ctx context.Context, cfg config, entries []manifest.Entry, chk *checker, m *measured) (map[string]metric, error) {
	w := cfg.workload
	tr := newTracer()
	p, u, err := runTier3(ctx, w, entries, filepath.Join(cfg.workDir, "traced"), tr)
	if err != nil {
		return nil, err
	}
	chk.pass(p.out, entries)
	genes := float64(len(entries))
	out := metricSet{}
	out.set("trace_overhead", genes/u.wall/m.genesPerSecond(len(entries)))
	out.set("core.source_next_s", mean(tr.durations("core.source.next")))
	out.set("checkpoint.sink_write_s", mean(tr.durations("checkpoint.sink.write")))
	ledger, err := os.Stat(checkpoint.LedgerPath(filepath.Join(p.dir, "out.jsonl")))
	if err != nil {
		return nil, err
	}
	out.set("checkpoint.ledger_bytes", float64(ledger.Size())/genes)
	out.set("persistcache.store_bytes", float64(dirBytes(filepath.Join(p.dir, "cache")))/genes)
	out.set("persistcache.replay_ratio", float64(p.summary.Replayed)/genes)
	hits, misses := float64(p.summary.CacheHits), float64(p.summary.CacheMisses)
	out.set("lik.decompositions", misses/genes)
	out.set("lik.decomp_hit_ratio", hits/(hits+misses))

	var h0, h1, iters, evals, conv, fullEvals, gradients []float64
	// The first fitted gene's H1 fit sets up the engine layers' engine.
	var fitted *core.FitResult
	var fittedGene manifest.Entry
	for i, r := range p.results { // delivered in manifest order
		if r.Result == nil {
			continue // an error row: the output check has counted it
		}
		if fitted == nil {
			fitted, fittedGene = r.Result.H1, entries[i]
		}
		h0 = append(h0, r.Result.H0.Runtime.Seconds())
		h1 = append(h1, r.Result.H1.Runtime.Seconds())
		iters = append(iters, float64(r.Result.TotalIterations))
		evals = append(evals, float64(r.Result.H0.FuncEvals+r.Result.H1.FuncEvals))
		// One gradient at each fit's start and one per iteration. A
		// central difference takes two full evaluations per model
		// parameter (4 under H0, 5 under H1) and walks every branch
		// twice.
		g0, g1 := float64(r.Result.H0.Iterations+1), float64(r.Result.H1.Iterations+1)
		fullEvals = append(fullEvals, evals[len(evals)-1]+2*(4*g0+5*g1))
		gradients = append(gradients, g0+g1)
		c := 0.0
		if r.Result.H0.Converged && r.Result.H1.Converged {
			c = 1
		}
		conv = append(conv, c)
	}
	out.set("core.fit_h0_s", mean(h0))
	out.set("core.fit_h1_s", mean(h1))
	out.set("core.iterations", mean(iters))
	out.set("core.func_evals", mean(evals))
	out.set("core.converged_ratio", mean(conv))

	if err := kernelLayers(out); err != nil {
		return nil, err
	}
	if err := alignLayers(out, entries); err != nil {
		return nil, err
	}
	if fitted == nil {
		return nil, fmt.Errorf("no gene was fitted")
	}
	if err := likLayerCalls(out, w, fittedGene, fitted); err != nil {
		return nil, err
	}
	// Computed from the counts above and the per-call costs measured on
	// the benchmark's engine: the share of a fit spent in engine calls.
	// The rest is optimizer bookkeeping.
	engine := mean(fullEvals)*out["lik.full_eval_s"].Value +
		mean(gradients)*out["lik.gradient_walks"].Value*out["lik.branch_eval_s"].Value +
		out["lik.decompositions"].Value*out["lapack.dsyev_s"].Value
	out.set("core.engine_share", engine/(mean(h0)+mean(h1)))
	out.offPath(tierLayers...)
	if err := writeSpans(tr, cfg); err != nil {
		return nil, err
	}
	return out.complete(perLayer)
}

func writeSpans(tr *tracer, cfg config) error {
	path, err := tr.write(cfg.spanDir, fmt.Sprintf("%s-seed%d.jsonl", cfg.workload.name, cfg.seed))
	if err != nil {
		return err
	}
	fmt.Fprintln(os.Stderr, "perfbench: spans written to", path)
	return nil
}

// dirBytes sums the sizes of the regular files under dir. Entries it
// cannot read are skipped: the number is a per-layer size, not a check.
func dirBytes(dir string) int64 {
	var n int64
	_ = filepath.Walk(dir, func(_ string, fi os.FileInfo, err error) error {
		if err == nil && fi.Mode().IsRegular() {
			n += fi.Size()
		}
		return nil
	})
	return n
}
