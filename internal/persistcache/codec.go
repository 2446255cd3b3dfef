package persistcache

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"strconv"
)

// Float vectors are persisted as concatenated fixed-width hex IEEE-754
// bit patterns (16 hex digits per float64, the checkpoint ledger's
// encodeBits idiom), so a reload returns the exact bits the writer
// held — no decimal round trip, no shortest-representation subtleties.

// encodeFloats renders vs as one hex string, 16 digits per value.
func encodeFloats(vs []float64) string {
	buf := make([]byte, 0, 16*len(vs))
	for _, v := range vs {
		s := strconv.FormatUint(math.Float64bits(v), 16)
		for i := len(s); i < 16; i++ {
			buf = append(buf, '0')
		}
		buf = append(buf, s...)
	}
	return string(buf)
}

// decodeFloats parses a hex string written by encodeFloats, requiring
// exactly want values.
func decodeFloats(s string, want int) ([]float64, error) {
	if len(s) != 16*want {
		return nil, fmt.Errorf("persistcache: float payload is %d hex digits, want %d", len(s), 16*want)
	}
	out := make([]float64, want)
	for i := 0; i < want; i++ {
		bits, err := strconv.ParseUint(s[16*i:16*i+16], 16, 64)
		if err != nil {
			return nil, fmt.Errorf("persistcache: float payload: %w", err)
		}
		out[i] = math.Float64frombits(bits)
	}
	return out, nil
}

const resultFileVersion = 1

// WarmSeed is the optimizer starting point a previous run's H1 MLE
// provides: the five branch-site model parameters plus the fitted
// branch lengths (indexed by node ID of the gene's tree, the layout
// core.FitResult.BranchLengths uses).
type WarmSeed struct {
	Kappa, Omega0, Omega2, P0, P1 float64
	BranchLengths                 []float64
}

// FileMeta identifies the alignment and tree file versions a result
// entry was computed from — the CountCache invalidation discipline.
// The manifest row digest covers only the gene's name and paths, so
// size+mtime carry the content identity: an edited input file
// invalidates the entry instead of replaying a stale result.
type FileMeta struct {
	AlignSize, AlignMTimeNS int64
	TreeSize, TreeMTimeNS   int64
}

// resultFile is the on-disk shape of one gene's persisted result: the
// deterministic JSONL record for exact replay, and the H1 MLE as a
// warm-start seed. One file per manifest row digest; the last writer
// wins, so the seed is always "the last MLE" for that row.
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
	// Seed fields are hex IEEE-754 bit patterns (encodeFloats).
	SeedParams string `json:"seed_params"` // κ, ω0, ω2, p0, p1
	SeedLens   string `json:"seed_lens"`   // branch lengths by node ID
	Sum        string `json:"sum"`
}

func (f *resultFile) sum() string {
	h := sha256.New()
	fmt.Fprintf(h, "v%d\x00%s\x00%s\x00%d\x00%d\x00%d\x00%d\x00%s\x00%s\x00%s",
		f.Version, f.Row, f.Fingerprint,
		f.AlignSize, f.AlignMTimeNS, f.TreeSize, f.TreeMTimeNS,
		f.Record, f.SeedParams, f.SeedLens)
	return hex.EncodeToString(h.Sum(nil))
}

// ResultEntry is one gene's decoded persisted result.
type ResultEntry struct {
	Row         string
	Fingerprint string
	Meta        FileMeta
	// Record is the deterministic JSONL record (no trailing newline).
	Record []byte
	Seed   WarmSeed
}

// maxResultLens bounds the persisted branch-length vector: it is
// indexed by node ID, so its length is at most twice the species count
// of any plausible tree. A corrupt header must not drive a huge
// allocation.
const maxResultLens = 1 << 20

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
	params, err := decodeFloats(f.SeedParams, 5)
	if err != nil {
		return nil, err
	}
	if len(f.SeedLens)%16 != 0 || len(f.SeedLens)/16 > maxResultLens {
		return nil, fmt.Errorf("persistcache: result entry branch-length payload malformed")
	}
	lens, err := decodeFloats(f.SeedLens, len(f.SeedLens)/16)
	if err != nil {
		return nil, err
	}
	return &ResultEntry{
		Row:         f.Row,
		Fingerprint: f.Fingerprint,
		Meta: FileMeta{
			AlignSize: f.AlignSize, AlignMTimeNS: f.AlignMTimeNS,
			TreeSize: f.TreeSize, TreeMTimeNS: f.TreeMTimeNS,
		},
		Record: []byte(f.Record),
		Seed: WarmSeed{
			Kappa: params[0], Omega0: params[1], Omega2: params[2],
			P0: params[3], P1: params[4],
			BranchLengths: lens,
		},
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
		SeedParams: encodeFloats([]float64{
			e.Seed.Kappa, e.Seed.Omega0, e.Seed.Omega2, e.Seed.P0, e.Seed.P1,
		}),
		SeedLens: encodeFloats(e.Seed.BranchLengths),
	}
	f.Sum = f.sum()
	return json.Marshal(f)
}
