// Package persistcache is the cross-run warm cache: it persists each
// gene's final result to a sidecar directory so that daemon restarts
// and re-runs of already-analyzed manifests replay whole genes instead
// of refitting them.
//
// The store holds one small file per gene,
// dir/result/<row-digest>.json, keyed on the manifest row digest of the
// gene's name and absolute input paths. It holds the gene's
// deterministic JSONL record, the options fingerprint (including the
// resolved π digest) it was computed under, and the input files'
// size+mtime. A full match — fingerprint and file metadata — replays
// the record byte-identically with zero optimizer iterations; anything
// less is a miss and the gene is fitted from its cold start.
//
// Every entry follows one discipline: writes go through a temp file
// and atomic rename (concurrent processes sharing a cache directory
// are last-writer-wins, readers never see a torn file), every entry
// carries a sha256 checksum over its payload, and any defect on read —
// missing file, bad JSON, checksum or identity mismatch — is a miss
// that falls back to recomputation, never a wrong answer. The cache is
// advisory: deleting the directory costs one cold run.
package persistcache

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// Store is a persistent warm cache rooted at one directory. It is safe
// for concurrent use by multiple goroutines, and multiple processes
// may share one directory (atomic per-entry writes; last writer wins).
type Store struct {
	dir string

	mu sync.Mutex
	c  Counters
}

// Counters are the store's cumulative hit/miss/write counts, exposed
// through the daemon's /healthz so warm-vs-cold behavior is observable
// without log spelunking.
type Counters struct {
	// ResultHits counts full-match result replays; ResultMisses counts
	// lookups that found no replayable entry.
	ResultHits   int `json:"result_hits"`
	ResultMisses int `json:"result_misses"`
	// ResultWrites counts result entries persisted after fits.
	ResultWrites int `json:"result_writes"`
}

// Open creates (if needed) and returns the store rooted at dir.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(filepath.Join(dir, "result"), 0o755); err != nil {
		return nil, fmt.Errorf("persistcache: %w", err)
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Counters returns a snapshot of the cumulative counters.
func (s *Store) Counters() Counters {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.c
}

func (s *Store) resultPath(row string) string {
	return filepath.Join(s.dir, "result", row+".json")
}

// LookupResult returns the stored deterministic JSONL record for the
// manifest row when everything matches: the options fingerprint and
// the alignment/tree file size+mtime. The returned bytes replay the
// gene byte-identically with zero compute.
func (s *Store) LookupResult(row, fingerprint string, meta FileMeta) ([]byte, bool) {
	e, err := s.readResult(row)
	if err != nil || e.Fingerprint != fingerprint || e.Meta != meta {
		s.count(func(c *Counters) { c.ResultMisses++ })
		return nil, false
	}
	s.count(func(c *Counters) { c.ResultHits++ })
	return e.Record, true
}

// readResult loads and authenticates the row's entry, verifying the
// stored row digest matches the file it was found under.
func (s *Store) readResult(row string) (*ResultEntry, error) {
	data, err := os.ReadFile(s.resultPath(row))
	if err != nil {
		return nil, err
	}
	e, err := decodeResultFile(data)
	if err != nil {
		return nil, err
	}
	if e.Row != row {
		return nil, fmt.Errorf("persistcache: result entry for row %s found under %s", e.Row, row)
	}
	return e, nil
}

// PutResult persists one gene's result entry, replacing any previous
// entry for the row (last writer wins). Best effort: a write failure
// is returned for observability but callers treat it as lost warmth.
func (s *Store) PutResult(e ResultEntry) error {
	data, err := encodeResultFile(&e)
	if err != nil {
		return fmt.Errorf("persistcache: %w", err)
	}
	if err := writeAtomic(s.resultPath(e.Row), data); err != nil {
		return err
	}
	s.count(func(c *Counters) { c.ResultWrites++ })
	return nil
}

// StatFile returns the size and mtime identity of one input file.
func StatFile(path string) (size, mtimeNS int64, ok bool) {
	info, err := os.Stat(path)
	if err != nil {
		return 0, 0, false
	}
	return info.Size(), info.ModTime().UnixNano(), true
}

// writeAtomic writes data to path via a temp file in the same
// directory and an atomic rename, so concurrent writers are
// last-writer-wins and readers never observe a torn entry.
func writeAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("persistcache: %w", err)
	}
	if _, err := tmp.Write(append(data, '\n')); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("persistcache: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("persistcache: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("persistcache: %w", err)
	}
	return nil
}

func (s *Store) count(f func(*Counters)) {
	s.mu.Lock()
	f(&s.c)
	s.mu.Unlock()
}
