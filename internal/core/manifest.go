package core

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"

	"repro/internal/align"
	"repro/internal/manifest"
	"repro/internal/newick"
	"repro/internal/persistcache"
)

// ManifestSource streams genes from manifest entries, loading each
// alignment and tree lazily on Next so that only the driver's
// prefetch window of genes is ever resident — the front end that
// takes the batch pipeline from "fits in memory" to "fits on disk"
// (Selectome-scale collections, per-gene trees).
//
// Reset rewinds to the first entry, so the source satisfies
// ReplayableSource and supports the two-pass shared-frequency path.
// Replaying re-reads (and re-encodes) every file: bounded memory is
// bought with one extra pass of I/O. Use manifest.Load or
// manifest.ScanDir to build verified entries.
type ManifestSource struct {
	entries []manifest.Entry
	format  align.Format
	next    int

	// Cross-run result store, attached by RunBatchStream (see
	// AttachPersist): already-analyzed rows are yielded as replay
	// genes, and fresh genes carry the identity fits are stored back
	// under.
	persist   *persistcache.Store
	persistFP string
}

// NewManifestSource returns a source over the entries, reading
// alignments in the given format (align.FormatAuto sniffs each file).
func NewManifestSource(entries []manifest.Entry, format align.Format) *ManifestSource {
	return &ManifestSource{entries: entries, format: format}
}

// AttachPersist implements PersistAttacher: subsequent Next calls
// consult the store for replayable results (fingerprint + file
// metadata match) and attach the row identity fresh fits are stored
// back under. The warm argument is ignored (see PersistAttacher).
func (s *ManifestSource) AttachPersist(store *persistcache.Store, fingerprint string, _ bool) {
	s.persist = store
	s.persistFP = fingerprint
}

// Len returns the number of genes the source will yield.
func (s *ManifestSource) Len() int { return len(s.entries) }

// Next loads the next entry's alignment and tree and returns them as
// a Gene. A file that fails to load (missing, truncated, unparseable)
// does not abort the stream: the gene is returned with the load error
// attached, and the driver records it as that gene's error result —
// one bad file in a million-gene manifest costs one result row, not
// the run.
func (s *ManifestSource) Next() (*Gene, error) {
	if s.next >= len(s.entries) {
		return nil, nil
	}
	e := s.entries[s.next]
	s.next++

	// Persistent-store fast path: when the row was already analyzed
	// under this run's fingerprint and the input files are unchanged
	// (size + mtime), yield the stored record without reading either
	// file — the replay is metadata-bound. The record's own name is
	// cross-checked against the row so a short-digest collision
	// degrades to a miss, never a wrong gene.
	var fmeta persistcache.FileMeta
	var row string
	haveMeta := false
	if s.persist != nil {
		row = persistRow(e)
		as, am, okA := persistcache.StatFile(e.AlignPath)
		ts, tm, okT := persistcache.StatFile(e.TreePath)
		if okA && okT {
			fmeta = persistcache.FileMeta{AlignSize: as, AlignMTimeNS: am, TreeSize: ts, TreeMTimeNS: tm}
			haveMeta = true
			if raw, ok := s.persist.LookupResult(row, s.persistFP, fmeta); ok {
				var rec GeneRecord
				if err := json.Unmarshal(raw, &rec); err == nil && rec.Name == e.Name && rec.Error == "" {
					return &Gene{Name: e.Name, replay: &rec}, nil
				}
			}
		}
	}

	a, err := align.ReadFile(e.AlignPath, s.format)
	if err != nil {
		return &Gene{Name: e.Name, loadErr: err}, nil
	}
	t, err := ReadTreeFile(e.TreePath)
	if err != nil {
		return &Gene{Name: e.Name, loadErr: err}, nil
	}
	g := &Gene{Name: e.Name, Alignment: a, Tree: t}
	if haveMeta {
		g.rowDigest = row
		g.fmeta = fmeta
		g.haveMeta = true
	}
	return g, nil
}

// persistRow is the result tier's key for one entry: the row digest
// with both paths made absolute, so a relative and an absolute spelling
// of the same files share one cache entry. (The checkpoint ledger keeps
// e.Digest(), so existing ledgers still resume.)
func persistRow(e manifest.Entry) string {
	if a, err := e.Abs(); err == nil {
		e = a
	}
	return e.Digest()
}

// Reset rewinds to the first entry.
func (s *ManifestSource) Reset() error {
	s.next = 0
	return nil
}

// Skip advances past the next n genes without touching their files —
// the checkpoint resume fast path (completed genes are always a prefix
// of the manifest, so resuming never needs to load them).
func (s *ManifestSource) Skip(n int) error {
	if n < 0 || s.next+n > len(s.entries) {
		return fmt.Errorf("core: manifest source: cannot skip %d of %d remaining genes", n, len(s.entries)-s.next)
	}
	s.next += n
	return nil
}

// ReadTreeFile parses a Newick tree file.
func ReadTreeFile(path string) (*newick.Tree, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	t, err := newick.Parse(strings.TrimSpace(string(data)))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return t, nil
}
