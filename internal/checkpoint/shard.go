package checkpoint

import (
	"fmt"

	"repro/internal/manifest"
)

// The shard ledger is the fan-out coordinator's durability layer
// (internal/fanout): where the gene ledger records per-gene progress
// of one stream, the shard ledger records per-shard progress of a
// multi-daemon run — which daemon each shard's job was submitted to,
// and which shards' results have been durably appended to the merged
// output. It is written through the same append-only log as the gene
// ledger (appendLog) and obeys the same invariants: every line
// is fsynced, output data is made durable before the line that
// describes it, Open drops a torn final line, and resuming under a
// changed manifest, shard count or options is refused via the header.
//
// Unlike gene records, submit records are not a prefix: shards run
// concurrently on many daemons and a shard may be resubmitted (to a
// different daemon) after a failure, so the latest submit per shard
// wins. Done records ARE a prefix 0..k-1 — the coordinator appends
// shard results to the merged output strictly in shard order, which is
// what makes the concatenation byte-identical to a single-process run.

// ShardHeader is the shard ledger's first line, binding it to one
// fan-out run.
type ShardHeader struct {
	Version int `json:"version"`
	// ManifestDigest fingerprints the FULL manifest (all rows, before
	// sharding); Genes is its row count.
	ManifestDigest string `json:"manifest_digest"`
	Genes          int    `json:"genes"`
	// Shards is the shard count the manifest was split into. Resuming
	// with a different count is refused: the row ranges would differ.
	Shards int `json:"shards"`
	// Options is an opaque fingerprint of the result-affecting job
	// options (see fanout.Fingerprint).
	Options string `json:"options,omitempty"`
}

// ShardSubmit records one shard's job submission: shard index (0-based),
// the daemon endpoint, and the job id the daemon assigned. A shard may
// carry several submit records (resubmission after a daemon died); the
// latest wins.
type ShardSubmit struct {
	Shard    int    `json:"shard"`
	Endpoint string `json:"endpoint"`
	JobID    string `json:"job_id"`
}

// ShardDone records that one shard's results were appended to the
// merged output: Offset is the output file's byte size after the
// shard's rows were flushed and synced. Done records are always the
// contiguous shard prefix 0..k-1.
type ShardDone struct {
	Shard  int   `json:"shard"`
	Offset int64 `json:"offset"`
}

// shardLine is the on-disk envelope: exactly one field is set. Pi is
// the coordinator's shared-frequency vector (a -sharefreq fan-out),
// stored as hex IEEE-754 bit patterns like the gene ledger's so a
// resumed coordinator replays the identical π instead of re-pooling.
type shardLine struct {
	Header *ShardHeader `json:"header,omitempty"`
	Pi     []string     `json:"pi,omitempty"`
	Submit *ShardSubmit `json:"submit,omitempty"`
	Done   *ShardDone   `json:"done,omitempty"`
}

func (ln shardLine) version() (int, bool) {
	if ln.Header == nil {
		return 0, false
	}
	return ln.Header.Version, true
}

// ShardLedger is an open fan-out ledger. One goroutine owns it at a
// time (the coordinator is single-threaded over its ledger).
type ShardLedger struct {
	appendLog
	header  ShardHeader
	pi      []float64
	submits []ShardSubmit
	dones   []ShardDone
}

// ShardLedgerPath returns the conventional shard-ledger location for a
// merged output file: beside it, with a ".fanout" suffix.
func ShardLedgerPath(outPath string) string { return outPath + ".fanout" }

// CreateShardLedger starts a fresh shard ledger at path (truncating
// any previous one) and durably writes the header.
func CreateShardLedger(path string, h ShardHeader) (*ShardLedger, error) {
	h.Version = Version
	log, err := createLog(path, shardLine{Header: &h})
	if err != nil {
		return nil, err
	}
	return &ShardLedger{appendLog: log, header: h}, nil
}

// OpenShardLedger loads the shard ledger at path and reopens it for
// appending, dropping a torn final line the way Open does.
func OpenShardLedger(path string) (*ShardLedger, error) {
	l := &ShardLedger{}
	log, _, err := openLog(path, Version, func(ln shardLine) error {
		switch {
		case ln.Header != nil:
			l.header = *ln.Header
		case ln.Pi != nil:
			pi, err := decodeBits(ln.Pi)
			if err != nil {
				return fmt.Errorf("checkpoint: %s: %w", path, err)
			}
			l.pi = pi
		case ln.Submit != nil:
			l.submits = append(l.submits, *ln.Submit)
		case ln.Done != nil:
			l.dones = append(l.dones, *ln.Done)
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
func (l *ShardLedger) Header() ShardHeader { return l.header }

// Frequencies returns the recorded shared-π vector, or nil when none
// was recorded.
func (l *ShardLedger) Frequencies() []float64 { return l.pi }

// AppendFrequencies durably records the coordinator's shared-frequency
// vector as IEEE-754 bit patterns, so a resumed fan-out replays the
// identical π instead of re-pooling the manifest.
func (l *ShardLedger) AppendFrequencies(pi []float64) error {
	if err := l.append(shardLine{Pi: encodeBits(pi)}); err != nil {
		return err
	}
	l.pi = append([]float64(nil), pi...)
	return nil
}

// AppendSubmit durably records one shard's job submission.
func (l *ShardLedger) AppendSubmit(sub ShardSubmit) error {
	if err := l.append(shardLine{Submit: &sub}); err != nil {
		return err
	}
	l.submits = append(l.submits, sub)
	return nil
}

// AppendDone durably records that one shard's results reached the
// merged output. The caller must have flushed and fsynced the output
// through d.Offset first — the ledger never points past durable data.
func (l *ShardLedger) AppendDone(d ShardDone) error {
	if err := l.append(shardLine{Done: &d}); err != nil {
		return err
	}
	l.dones = append(l.dones, d)
	return nil
}

// ShardPlan is a validated fan-out resume point: shards 0..Done-1 are
// already appended to the merged output (truncate it to Offset and
// continue with shard Done), Assignments holds the latest recorded
// daemon job per not-yet-appended shard, so the coordinator can adopt
// an in-flight job instead of resubmitting it, and Frequencies — for a
// -sharefreq fan-out — is the recorded shared-π vector to replay.
type ShardPlan struct {
	Done        int
	Offset      int64
	Assignments map[int]ShardSubmit
	Frequencies []float64
}

// PlanShards validates the ledger against the full manifest, the shard
// count and the options fingerprint the coordinator is about to run
// with, and returns where to resume. Any mismatch is an error:
// continuing would concatenate results from two different runs.
func (l *ShardLedger) PlanShards(entries []manifest.Entry, shards int, options string) (ShardPlan, error) {
	h := l.header
	if h.Genes != len(entries) || h.ManifestDigest != manifest.Digest(entries) {
		return ShardPlan{}, fmt.Errorf("checkpoint: %s: manifest changed since the fan-out was checkpointed (was %d genes, digest %s)", l.path, h.Genes, h.ManifestDigest)
	}
	if h.Shards != shards {
		return ShardPlan{}, fmt.Errorf("checkpoint: %s: shard count changed since the fan-out was checkpointed (ledger %d, requested %d)", l.path, h.Shards, shards)
	}
	if h.Options != options {
		return ShardPlan{}, fmt.Errorf("checkpoint: %s: job options changed since the fan-out was checkpointed (ledger %q, requested %q)", l.path, h.Options, options)
	}
	p := ShardPlan{Assignments: make(map[int]ShardSubmit), Frequencies: l.pi}
	for i, d := range l.dones {
		if d.Shard != i || i >= shards {
			return ShardPlan{}, fmt.Errorf("checkpoint: %s: done record %d out of sequence (shard %d of %d)", l.path, i, d.Shard, shards)
		}
		if d.Offset < p.Offset {
			return ShardPlan{}, fmt.Errorf("checkpoint: %s: done record %d offset %d regressed below %d", l.path, i, d.Offset, p.Offset)
		}
		p.Offset = d.Offset
	}
	p.Done = len(l.dones)
	for _, sub := range l.submits {
		if sub.Shard < 0 || sub.Shard >= shards {
			return ShardPlan{}, fmt.Errorf("checkpoint: %s: submit record for shard %d of %d", l.path, sub.Shard, shards)
		}
		if sub.Shard >= p.Done {
			p.Assignments[sub.Shard] = sub // latest wins
		}
	}
	return p, nil
}
