// Package checkpoint makes streaming batch runs durable and resumable:
// an append-only JSONL ledger beside the results file records every
// gene whose result has safely reached disk, so a run killed at gene
// 9,000 of 10,000 restarts from 9,001 instead of from zero — the
// fourth execution tier (resumable jobs) layered on the streaming
// batch driver, and the persistence layer under the internal/serve job
// service.
//
// # Ledger format
//
// The ledger is JSON Lines. Line one is a header binding the ledger to
// its run: a digest of the manifest rows, the row count, and an opaque
// fingerprint of the result-affecting options. Subsequent lines are
// either a frequency record (the shared-π vector of a ShareFrequencies
// run, stored as IEEE-754 bit patterns so the resumed run replays the
// identical vector) or a gene record: sequence number, gene name, the
// manifest row's digest, whether the result carried an error, and the
// results file's byte size after that result was flushed and synced.
//
// # Invariants
//
//   - Prefix property: RunBatchStream delivers results in source order,
//     so the checkpointed genes are always exactly rows 0..k-1 of the
//     manifest. Resuming = validate the prefix, truncate the output to
//     the last recorded offset (dropping any torn tail a crash left
//     past it), and skip k source rows.
//   - Durability order: a gene's result is flushed and fsync'ed to the
//     results file before its ledger record is written, so the ledger
//     never points past durable output. A crash can leave a torn final
//     ledger line; Open drops it (the corresponding result is simply
//     re-fitted).
//   - Bit-identity: a resumed run's concatenated output is
//     byte-identical to an uninterrupted run's. The checkpointed
//     output is therefore written in a deterministic projection of the
//     results (runtime_sec zeroed — wall-clock noise would break the
//     contract), and a ShareFrequencies run replays the recorded π
//     rather than re-pooling over the remaining genes.
//   - Safety: resuming under a different manifest (any row edited,
//     reordered, added or removed) or different result-affecting
//     options is refused up front via the header digests.
package checkpoint

import (
	"fmt"
	"math"
	"strconv"
)

// Version identifies the ledger format; Open refuses other versions.
const Version = 1

// Header is the ledger's first line, binding it to one run.
type Header struct {
	Version int `json:"version"`
	// ManifestDigest fingerprints the manifest rows (manifest.Digest)
	// the run processes — for a sharded run, the shard's rows.
	ManifestDigest string `json:"manifest_digest"`
	// Genes is the total row count of the run.
	Genes int `json:"genes"`
	// Options is an opaque fingerprint of the result-affecting options
	// (see OptionsFingerprint); resuming with a different value is
	// refused.
	Options string `json:"options,omitempty"`
}

// Record is one checkpointed gene.
type Record struct {
	// Seq is the gene's 0-based manifest row index; records are always
	// the contiguous prefix 0..k-1.
	Seq int `json:"seq"`
	// Name and Digest identify the manifest row (manifest.Entry.Digest).
	Name   string `json:"name"`
	Digest string `json:"digest"`
	// Err marks a per-gene failure row (the result carries an error
	// message instead of a fit).
	Err bool `json:"err,omitempty"`
	// Offset is the results file's size in bytes after this gene's
	// result was flushed and synced.
	Offset int64 `json:"offset"`
}

// ledgerLine is the on-disk envelope: exactly one field is set.
type ledgerLine struct {
	Header *Header  `json:"header,omitempty"`
	Pi     []string `json:"pi,omitempty"`
	Gene   *Record  `json:"gene,omitempty"`
}

func (ln ledgerLine) version() (int, bool) {
	if ln.Header == nil {
		return 0, false
	}
	return ln.Header.Version, true
}

// Ledger is an open checkpoint ledger: the parsed state plus the log
// appends go to. One goroutine owns a Ledger at a time.
type Ledger struct {
	appendLog
	header Header
	pi     []float64
	recs   []Record
}

// LedgerPath returns the conventional ledger location for a results
// file: beside it, with a ".ckpt" suffix, so results and ledger move
// together.
func LedgerPath(outPath string) string { return outPath + ".ckpt" }

// Create starts a fresh ledger at path (truncating any previous one)
// and durably writes the header.
func Create(path string, h Header) (*Ledger, error) {
	h.Version = Version
	log, err := createLog(path, ledgerLine{Header: &h})
	if err != nil {
		return nil, err
	}
	return &Ledger{appendLog: log, header: h}, nil
}

// Open loads the ledger at path and reopens it for appending. A torn
// final line (a crash mid-append) is dropped — its gene is re-fitted;
// a duplicate header, another version or a bad π record is an error.
func Open(path string) (*Ledger, error) {
	l := &Ledger{}
	log, _, err := openLog(path, Version, func(ln ledgerLine) error {
		switch {
		case ln.Header != nil:
			l.header = *ln.Header
		case ln.Pi != nil:
			pi, err := decodeBits(ln.Pi)
			if err != nil {
				return fmt.Errorf("checkpoint: %s: %w", path, err)
			}
			l.pi = pi
		case ln.Gene != nil:
			l.recs = append(l.recs, *ln.Gene)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	l.appendLog = log
	return l, nil
}

// Header returns the ledger's header.
func (l *Ledger) Header() Header { return l.header }

// Records returns the checkpointed gene records in order.
func (l *Ledger) Records() []Record { return l.recs }

// Frequencies returns the recorded shared-π vector, or nil when none
// was recorded.
func (l *Ledger) Frequencies() []float64 { return l.pi }

// Append durably records one completed gene. The caller must have made
// the gene's result durable in the output file first (see Sink).
func (l *Ledger) Append(r Record) error {
	if err := l.append(ledgerLine{Gene: &r}); err != nil {
		return err
	}
	l.recs = append(l.recs, r)
	return nil
}

// AppendFrequencies durably records the shared-frequency vector as
// IEEE-754 bit patterns, so a resumed run replays the identical π.
func (l *Ledger) AppendFrequencies(pi []float64) error {
	if err := l.append(ledgerLine{Pi: encodeBits(pi)}); err != nil {
		return err
	}
	l.pi = append([]float64(nil), pi...)
	return nil
}

// encodeBits renders a frequency vector as hex IEEE-754 bit patterns —
// the lossless on-disk form both the gene ledger and the fan-out shard
// ledger record π in.
func encodeBits(pi []float64) []string {
	bits := make([]string, len(pi))
	for i, v := range pi {
		bits[i] = strconv.FormatUint(math.Float64bits(v), 16)
	}
	return bits
}

// decodeBits parses hex-encoded IEEE-754 bit patterns.
func decodeBits(bits []string) ([]float64, error) {
	pi := make([]float64, len(bits))
	for i, s := range bits {
		u, err := strconv.ParseUint(s, 16, 64)
		if err != nil {
			return nil, fmt.Errorf("bad pi record: %w", err)
		}
		pi[i] = math.Float64frombits(u)
	}
	return pi, nil
}
