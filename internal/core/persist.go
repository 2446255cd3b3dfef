package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"math"

	"repro/internal/persistcache"
)

// FrequenciesDigest fingerprints a frequency vector by its exact
// IEEE-754 bit patterns — equal digests mean bit-identical vectors. It
// is the π component of both the checkpoint ledger's options
// fingerprint and the persistent result store's keys.
func FrequenciesDigest(pi []float64) string {
	h := sha256.New()
	var b [8]byte
	for _, v := range pi {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// PersistAttacher is implemented by gene sources that can consult a
// persistent result store while yielding genes (ManifestSource; the
// checkpoint package's resume wrapper forwards it). RunBatchStream
// attaches the store after resolving shared frequencies, so the
// fingerprint the source keys lookups on always carries the resolved
// π digest. The warm argument is ignored: RunBatchStream always passes
// false, and the parameter stays only so existing implementations of
// this signature keep compiling.
type PersistAttacher interface {
	AttachPersist(store *persistcache.Store, fingerprint string, warm bool)
}

// storeResult persists one successfully fitted gene into the result
// store: the deterministic JSONL projection (runtime zeroed, exactly
// the bytes a checkpoint sink writes) for exact replay. Best effort — a
// failed write costs a refit on the next run, never correctness of this
// one.
func storeResult(opts *Options, g *Gene, res GeneResult) {
	rec := NewGeneRecord(res)
	rec.RuntimeSec = 0 // deterministic projection, as the checkpoint sink writes it
	b, err := json.Marshal(rec)
	if err != nil {
		return
	}
	_ = opts.persist.PutResult(persistcache.ResultEntry{
		Row:         g.rowDigest,
		Fingerprint: opts.persistFP,
		Meta:        g.fmeta,
		Record:      b,
	})
}
