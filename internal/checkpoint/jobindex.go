// Job index: an append-only JSONL ledger of every job a slimcodemld
// data directory has ever held, so restart recovery reads one file
// instead of stat-ing and revalidating every job's spec and ledger —
// the difference between O(live jobs) and O(all historical jobs) when
// a daemon holds millions of finished analyses.
//
// The index is written through the same append-only log as the gene
// ledger it lives beside (appendLog): records are appended with
// marshal → write → fsync, a job's record is only written after the
// state it describes is durable (results fsync'ed before a "done"
// record — fsync-before-describe), and a torn final line left by a
// crash is dropped on open. Unlike the gene ledger the index is
// *derived* state: every record can be rebuilt from the job spec files
// and per-job ledgers, so corruption beyond the torn tail, a deleted
// index, or a pre-index data directory all degrade to the
// directory-scan recovery path, never to data loss.
//
// Records are latest-wins per job ID; a purge line tombstones an ID.
// Open compacts the file (one line per live job) via
// write-temp-then-rename whenever it holds dead lines — a torn tail was
// dropped, or a line was superseded or purged — so the file's size
// tracks the live job count, not the append count. The header carries
// the largest job sequence number ever issued — including purged jobs
// — so IDs are never reissued even after every record referencing them
// is compacted away.
package checkpoint

import (
	"errors"
	"fmt"
	"os"
	"sync"
)

// JobIndexVersion identifies the index format; OpenJobIndex refuses
// other versions.
const JobIndexVersion = 1

// JobIndexPath returns the conventional index location inside a data
// directory.
func JobIndexPath(dataDir string) string { return dataDir + "/jobs.index" }

// JobIndexHeader is the index's first line.
type JobIndexHeader struct {
	Version int `json:"jobindex_version"`
	// MaxSeq is the largest job sequence number issued when the header
	// was written (compaction refreshes it). Appends may carry higher
	// IDs; the true maximum is max(header, every record's ID).
	MaxSeq int `json:"max_seq,omitempty"`
}

// JobIndexRecord describes one job's last known state. Latest record
// per ID wins.
type JobIndexRecord struct {
	ID     string `json:"id"`
	Tenant string `json:"tenant,omitempty"`
	State  string `json:"state"`
	Total  int    `json:"total,omitempty"`
	Done   int    `json:"done,omitempty"`
	Failed int    `json:"failed,omitempty"`
	Error  string `json:"error,omitempty"`
	// Digest fingerprints the job's manifest rows (manifest.Digest).
	Digest string `json:"digest,omitempty"`
	// SubmittedUnixNano/FinishedUnixNano are wall-clock timestamps in
	// Unix nanoseconds (0 = unset), so recovered jobs keep their real
	// submission and completion times across restarts.
	SubmittedUnixNano int64 `json:"submitted,omitempty"`
	FinishedUnixNano  int64 `json:"finished,omitempty"`
}

// jobIndexLine is the on-disk envelope: exactly one field is set.
type jobIndexLine struct {
	Header *JobIndexHeader `json:"header,omitempty"`
	Job    *JobIndexRecord `json:"job,omitempty"`
	Purge  string          `json:"purge,omitempty"`
}

func (ln jobIndexLine) version() (int, bool) {
	if ln.Header == nil {
		return 0, false
	}
	return ln.Header.Version, true
}

// JobIndex is an open job index. Methods are safe for concurrent use.
type JobIndex struct {
	mu sync.Mutex
	appendLog
	recs   map[string]*JobIndexRecord
	order  []string // live IDs in first-record order
	maxSeq int      // largest sequence number ever seen, incl. purged
	seq    func(id string) (int, bool)
}

// OpenJobIndex opens (or creates) the index at path. Loading drops a
// torn final line; if the surviving file holds superseded or purged
// lines it is compacted in place via write-temp-then-rename. seq
// extracts a job ID's sequence number (ok=false for foreign IDs); it
// feeds MaxSeq so IDs are never reissued.
func OpenJobIndex(path string, seq func(id string) (int, bool)) (*JobIndex, error) {
	if seq == nil {
		seq = func(string) (int, bool) { return 0, false }
	}
	x := &JobIndex{recs: make(map[string]*JobIndexRecord), seq: seq}
	dead := false
	log, torn, err := openLog(path, JobIndexVersion, func(ln jobIndexLine) error {
		if x.apply(ln) {
			dead = true
		}
		return nil
	})
	switch {
	case errors.Is(err, os.ErrNotExist):
		log, err = createLog(path, jobIndexLine{Header: &JobIndexHeader{Version: JobIndexVersion}})
	case err == nil && (torn || dead):
		log.Close()
		log, err = x.compact(path)
	}
	if err != nil {
		return nil, err
	}
	x.appendLog = log
	return x, nil
}

// apply folds one line into the in-memory view and reports whether it
// made a line dead: a superseded record, or a purge (which is dead
// itself, along with its target).
func (x *JobIndex) apply(ln jobIndexLine) (dead bool) {
	switch {
	case ln.Header != nil:
		x.maxSeq = max(x.maxSeq, ln.Header.MaxSeq)
	case ln.Job != nil:
		rec := *ln.Job
		if _, dead = x.recs[rec.ID]; !dead {
			x.order = append(x.order, rec.ID)
		}
		x.recs[rec.ID] = &rec
		x.noteSeq(rec.ID)
	case ln.Purge != "":
		if _, ok := x.recs[ln.Purge]; ok {
			delete(x.recs, ln.Purge)
			x.dropOrder(ln.Purge)
		}
		x.noteSeq(ln.Purge)
		dead = true
	}
	return dead
}

// noteSeq folds an ID's sequence number into maxSeq.
func (x *JobIndex) noteSeq(id string) {
	if n, ok := x.seq(id); ok && n > x.maxSeq {
		x.maxSeq = n
	}
}

// dropOrder removes id from the live-order slice.
func (x *JobIndex) dropOrder(id string) {
	for i, v := range x.order {
		if v == id {
			x.order = append(x.order[:i], x.order[i+1:]...)
			return
		}
	}
}

// compact rewrites the index at path as header + one line per live
// job, atomically (write temp, fsync, rename), and returns the new
// file open for appends.
func (x *JobIndex) compact(path string) (appendLog, error) {
	tmp, err := createLog(path+".tmp", jobIndexLine{Header: &JobIndexHeader{Version: JobIndexVersion, MaxSeq: x.maxSeq}})
	if err != nil {
		return appendLog{}, err
	}
	lines := make([]any, len(x.order))
	for i, id := range x.order {
		lines[i] = jobIndexLine{Job: x.recs[id]}
	}
	if err = tmp.append(lines...); err == nil {
		err = os.Rename(tmp.path, path)
	}
	if err != nil {
		tmp.Close()
		os.Remove(tmp.path)
		return appendLog{}, fmt.Errorf("checkpoint: compact %s: %w", path, err)
	}
	return appendLog{path: path, f: tmp.f}, nil
}

// Put durably upserts one job record (latest wins). A record equal to
// the job's live one changes nothing and appends nothing.
func (x *JobIndex) Put(rec JobIndexRecord) error {
	x.mu.Lock()
	defer x.mu.Unlock()
	if cur, ok := x.recs[rec.ID]; ok && *cur == rec {
		return nil
	}
	return x.writeLocked(jobIndexLine{Job: &rec})
}

// Purge durably tombstones a job ID. The ID's sequence number stays
// folded into MaxSeq so it is never reissued.
func (x *JobIndex) Purge(id string) error {
	x.mu.Lock()
	defer x.mu.Unlock()
	return x.writeLocked(jobIndexLine{Purge: id})
}

// writeLocked appends one line and folds it into the in-memory view.
func (x *JobIndex) writeLocked(ln jobIndexLine) error {
	if err := x.append(ln); err != nil {
		return err
	}
	x.apply(ln)
	return nil
}

// Records returns the live job records in first-submission order.
func (x *JobIndex) Records() []JobIndexRecord {
	x.mu.Lock()
	defer x.mu.Unlock()
	out := make([]JobIndexRecord, 0, len(x.order))
	for _, id := range x.order {
		out = append(out, *x.recs[id])
	}
	return out
}

// MaxSeq returns the largest job sequence number the index has ever
// seen, including purged jobs.
func (x *JobIndex) MaxSeq() int {
	x.mu.Lock()
	defer x.mu.Unlock()
	return x.maxSeq
}

// Close closes the index file.
func (x *JobIndex) Close() error {
	x.mu.Lock()
	defer x.mu.Unlock()
	if x.f == nil {
		return nil
	}
	err := x.f.Close()
	x.f = nil
	return err
}
