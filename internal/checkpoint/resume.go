package checkpoint

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"repro/internal/align"
	"repro/internal/core"
	"repro/internal/manifest"
	"repro/internal/persistcache"
)

// Plan is a validated resume point: skip the first Skip manifest rows
// (Failed of which were error rows), truncate the output to Offset,
// and — for a ShareFrequencies run — replay Frequencies.
type Plan struct {
	Skip        int
	Failed      int
	Offset      int64
	Frequencies []float64
}

// Plan validates the ledger against the manifest rows the run is about
// to process (and the run's options fingerprint) and returns where to
// resume. Any mismatch — edited manifest, different options, records
// out of prefix order — is an error: continuing would concatenate
// results from two different runs.
func (l *Ledger) Plan(entries []manifest.Entry, options string) (Plan, error) {
	h := l.header
	if h.Genes != len(entries) || h.ManifestDigest != manifest.Digest(entries) {
		return Plan{}, fmt.Errorf("checkpoint: %s: manifest changed since the run was checkpointed (was %d genes, digest %s)", l.path, h.Genes, h.ManifestDigest)
	}
	if h.Options != options {
		return Plan{}, fmt.Errorf("checkpoint: %s: run options changed since the run was checkpointed (ledger %q, requested %q)", l.path, h.Options, options)
	}
	p := Plan{Frequencies: l.pi}
	for i, r := range l.recs {
		if r.Seq != i || i >= len(entries) {
			return Plan{}, fmt.Errorf("checkpoint: %s: record %d out of sequence (seq %d of %d genes)", l.path, i, r.Seq, len(entries))
		}
		if e := entries[i]; r.Name != e.Name || r.Digest != e.Digest() {
			return Plan{}, fmt.Errorf("checkpoint: %s: record %d (%s/%s) does not match manifest row %s", l.path, i, r.Name, r.Digest, e.Name)
		}
		if r.Offset < p.Offset {
			return Plan{}, fmt.Errorf("checkpoint: %s: record %d offset %d regressed below %d", l.path, i, r.Offset, p.Offset)
		}
		p.Offset = r.Offset
		if r.Err {
			p.Failed++
		}
	}
	p.Skip = len(l.recs)
	return p, nil
}

// OptionsFingerprint canonicalizes the result-affecting run options —
// the batch options plus the alignment file format — into the string
// the ledger header records. Scheduling knobs (concurrency, pool
// workers, prefetch, cache size) are deliberately absent: the engine
// guarantees bit-identical results across them, so a run may resume
// with different parallelism.
func OptionsFingerprint(opts core.BatchOptions, format align.Format) string {
	code := "universal"
	if opts.Code != nil {
		code = opts.Code.Name()
	}
	fp := fmt.Sprintf("engine=%d freq=%d maxiter=%d seed=%d m0start=%t sharefreq=%t code=%s format=%s",
		opts.Engine, opts.Freq, opts.MaxIterations, opts.Seed, opts.M0Start, opts.ShareFrequencies, code, format)
	// A preset frequency vector (a fan-out shard pinned to the
	// coordinator's pooled π) is result-affecting: digest it so a resume
	// under a different vector is refused. The component is appended
	// only when a vector is preset, keeping every existing ledger's
	// fingerprint unchanged. ShareFrequencies runs that derive π
	// themselves fingerprint before the derivation (see Run), so their
	// component never appears either.
	if opts.Frequencies != nil {
		fp += " pi=" + FrequenciesDigest(opts.Frequencies)
	}
	return fp
}

// FrequenciesDigest fingerprints a frequency vector by its exact
// IEEE-754 bit patterns — equal digests mean bit-identical vectors.
// (It lives in core, shared with the persistent result store; this
// alias keeps the historical checkpoint-side name.)
func FrequenciesDigest(pi []float64) string { return core.FrequenciesDigest(pi) }

// RunFingerprint is the fingerprint a checkpointed run's ledger
// records: the options fingerprint of the stream's batch options.
func RunFingerprint(opts core.StreamOptions, format align.Format) string {
	return OptionsFingerprint(opts.BatchOptions, format)
}

// skipper is the fast path Resume uses when the wrapped source can
// advance without loading files (ManifestSource).
type skipper interface{ Skip(n int) error }

// Resume wraps a replayable source to skip the first skip genes — the
// checkpointed prefix — after construction and again after every
// Reset. Sources implementing Skip(n) (ManifestSource) skip without
// touching the completed genes' files; any other source has its
// skipped genes drained via Next.
//
// The shared-frequency pre-pass never runs over a wrapped source: it
// would pool only the genes after the prefix. Run, the only caller,
// resolves π on the raw source first (or replays the ledger's π) and
// wraps it afterwards. The pre-pass also runs before RunBatchStream
// attaches the persistent store (AttachPersist), so it never sees a
// replayed gene.
func Resume(src core.ReplayableSource, skip int) core.ReplayableSource {
	if skip <= 0 {
		return src
	}
	return &resumedSource{src: src, skip: skip}
}

type resumedSource struct {
	src  core.ReplayableSource
	skip int
	pos  int // genes consumed from the underlying source since Reset
}

func (r *resumedSource) Next() (*core.Gene, error) {
	if r.pos < r.skip {
		if sk, ok := r.src.(skipper); ok {
			if err := sk.Skip(r.skip - r.pos); err != nil {
				return nil, err
			}
			r.pos = r.skip
		}
	}
	for r.pos < r.skip {
		g, err := r.src.Next()
		if err != nil {
			return nil, err
		}
		if g == nil {
			return nil, fmt.Errorf("checkpoint: source ended at gene %d, before the %d checkpointed genes", r.pos, r.skip)
		}
		r.pos++
	}
	g, err := r.src.Next()
	if g != nil {
		r.pos++
	}
	return g, err
}

func (r *resumedSource) Reset() error {
	if err := r.src.Reset(); err != nil {
		return err
	}
	r.pos = 0
	return nil
}

// AttachPersist forwards the persistent result store to the underlying
// source (a no-op for sources that do not support one), so a resumed
// run's remaining genes still replay from / store into the cache.
func (r *resumedSource) AttachPersist(store *persistcache.Store, fingerprint string, _ bool) {
	if pa, ok := r.src.(core.PersistAttacher); ok {
		pa.AttachPersist(store, fingerprint, false)
	}
}

// OpenOutput opens the results file of a checkpointed run positioned
// at the plan's offset, truncating any torn tail a crash wrote past
// the last checkpoint. A fresh run (offset 0) truncates entirely; a
// resumed run whose output is shorter than the checkpointed offset is
// an error — the ledger would point past the data.
func OpenOutput(path string, offset int64) (*os.File, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	if info.Size() < offset {
		f.Close()
		return nil, fmt.Errorf("checkpoint: %s is %d bytes, shorter than the %d-byte checkpoint — results file lost?", path, info.Size(), offset)
	}
	if err := f.Truncate(offset); err != nil {
		f.Close()
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	if _, err := f.Seek(offset, io.SeekStart); err != nil {
		f.Close()
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	return f, nil
}

// countingWriter tracks bytes written through it.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// Sink checkpoints every result: it serializes the deterministic JSONL
// projection of the record (runtime_sec zeroed — see the package
// invariants), flushes and fsyncs the output file, then appends the
// gene's ledger record, in that order, so the ledger never points past
// durable output. Results must arrive in manifest order starting at
// the plan's skip point — exactly what RunBatchStream over a Resume'd
// source delivers; anything else is an error.
type Sink struct {
	entries []manifest.Entry
	seq     int
	base    int64 // output offset when the sink was opened
	f       *os.File
	cw      *countingWriter
	bw      *bufio.Writer
	ledger  *Ledger
	// onResult, when set, observes each result after it is durably
	// checkpointed (the job service's progress counters).
	onResult func(core.GeneResult)
}

// NewSink builds a checkpointing sink over an output file positioned
// at plan.Offset (see OpenOutput).
func NewSink(f *os.File, entries []manifest.Entry, plan Plan, ledger *Ledger, onResult func(core.GeneResult)) *Sink {
	cw := &countingWriter{w: f}
	return &Sink{
		entries: entries, seq: plan.Skip, base: plan.Offset,
		f: f, cw: cw, bw: bufio.NewWriter(cw),
		ledger: ledger, onResult: onResult,
	}
}

// Write checkpoints one gene's result.
func (s *Sink) Write(r core.GeneResult) error {
	if s.seq >= len(s.entries) {
		return fmt.Errorf("checkpoint: result %q beyond the manifest's %d rows", r.Name, len(s.entries))
	}
	e := s.entries[s.seq]
	if r.Name != e.Name {
		return fmt.Errorf("checkpoint: result %d is %q, manifest row is %q", s.seq, r.Name, e.Name)
	}
	rec := core.NewGeneRecord(r)
	rec.RuntimeSec = 0 // deterministic projection: see package invariants
	b, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	b = append(b, '\n')
	if _, err := s.bw.Write(b); err != nil {
		return err
	}
	if err := s.bw.Flush(); err != nil {
		return err
	}
	if err := s.f.Sync(); err != nil {
		return err
	}
	if err := s.ledger.Append(Record{
		Seq: s.seq, Name: e.Name, Digest: e.Digest(),
		Err: r.Err != nil, Offset: s.base + s.cw.n,
	}); err != nil {
		return err
	}
	s.seq++
	if s.onResult != nil {
		s.onResult(r)
	}
	return nil
}
