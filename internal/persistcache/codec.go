package persistcache

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
)

// resultFileVersion is the entry format. Version 1 also carried the
// H1 MLE as an optimizer seed; a version-1 entry now reads as a miss,
// and the refit rewrites it as version 2.
const resultFileVersion = 2

// FileMeta identifies the alignment and tree file versions a result
// entry was computed from. The manifest row digest covers only the
// gene's name and paths, so size+mtime carry the content identity: an
// edited input file invalidates the entry instead of replaying a stale
// result.
type FileMeta struct {
	AlignSize, AlignMTimeNS int64
	TreeSize, TreeMTimeNS   int64
}

// resultFile is the on-disk shape of one gene's persisted result: the
// deterministic JSONL record for exact replay. One file per manifest
// row digest; the last writer wins.
type resultFile struct {
	Version      int    `json:"version"`
	Row          string `json:"row"`         // manifest row digest
	Fingerprint  string `json:"fingerprint"` // options fingerprint incl. π digest
	AlignSize    int64  `json:"align_size"`
	AlignMTimeNS int64  `json:"align_mtime_ns"`
	TreeSize     int64  `json:"tree_size"`
	TreeMTimeNS  int64  `json:"tree_mtime_ns"`
	// Record is the gene's deterministic JSONL projection (runtime_sec
	// zeroed), stored verbatim so a full-match replay is byte-identical.
	Record string `json:"record"`
	Sum    string `json:"sum"`
}

func (f *resultFile) sum() string {
	h := sha256.New()
	fmt.Fprintf(h, "v%d\x00%s\x00%s\x00%d\x00%d\x00%d\x00%d\x00%s",
		f.Version, f.Row, f.Fingerprint,
		f.AlignSize, f.AlignMTimeNS, f.TreeSize, f.TreeMTimeNS,
		f.Record)
	return hex.EncodeToString(h.Sum(nil))
}

// ResultEntry is one gene's decoded persisted result.
type ResultEntry struct {
	Row         string
	Fingerprint string
	Meta        FileMeta
	// Record is the deterministic JSONL record (no trailing newline).
	Record []byte
}

// decodeResultFile parses and authenticates one persisted result
// entry. Every defect is an error, and the caller treats every error
// as a miss.
func decodeResultFile(data []byte) (*ResultEntry, error) {
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("persistcache: result entry: %w", err)
	}
	if f.Version != resultFileVersion {
		return nil, fmt.Errorf("persistcache: result entry version %d, want %d", f.Version, resultFileVersion)
	}
	if f.Sum != f.sum() {
		return nil, fmt.Errorf("persistcache: result entry checksum mismatch")
	}
	if len(f.Record) == 0 || !json.Valid([]byte(f.Record)) {
		return nil, fmt.Errorf("persistcache: result entry record is not valid JSON")
	}
	return &ResultEntry{
		Row:         f.Row,
		Fingerprint: f.Fingerprint,
		Meta: FileMeta{
			AlignSize: f.AlignSize, AlignMTimeNS: f.AlignMTimeNS,
			TreeSize: f.TreeSize, TreeMTimeNS: f.TreeMTimeNS,
		},
		Record: []byte(f.Record),
	}, nil
}

// encodeResultFile renders an entry with its checksum.
func encodeResultFile(e *ResultEntry) ([]byte, error) {
	f := resultFile{
		Version:      resultFileVersion,
		Row:          e.Row,
		Fingerprint:  e.Fingerprint,
		AlignSize:    e.Meta.AlignSize,
		AlignMTimeNS: e.Meta.AlignMTimeNS,
		TreeSize:     e.Meta.TreeSize,
		TreeMTimeNS:  e.Meta.TreeMTimeNS,
		Record:       string(e.Record),
	}
	f.Sum = f.sum()
	return json.Marshal(f)
}
