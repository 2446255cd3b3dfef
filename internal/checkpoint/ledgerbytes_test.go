package checkpoint_test

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/manifest"
)

// tornTail is a crash mid-append: a record cut off before its newline.
const tornTail = `{"gene":{"seq":9,"na`

// pinnedPi is a frequency vector whose bits are not round in decimal,
// so a lossy encoding would show.
var pinnedPi = []float64{1.0 / 3, 0.1, math.Nextafter(0.2, 1), math.SmallestNonzeroFloat64, 0.25}

// TestPinnedLedgerBytes pins the on-disk bytes of all three ledgers the
// package writes — the gene ledger (with a recorded π), the fan-out
// shard ledger (submit, resubmit, done) and the daemon's job index
// (put, supersede, purge, and the compacted file a reopen leaves) —
// against the golden files in testdata, then reopens each file, clean
// and with a torn tail, and checks what it decodes. Existing ledgers
// must keep opening, so a change to the ledger code is correct only if
// this test passes unedited.
func TestPinnedLedgerBytes(t *testing.T) {
	entries := shardEntries(3)
	dir := t.TempDir()

	t.Run("gene", func(t *testing.T) {
		path := filepath.Join(dir, "run.jsonl.ckpt")
		l, err := checkpoint.Create(path, checkpoint.Header{
			ManifestDigest: manifest.Digest(entries), Genes: len(entries), Options: "engine=slim maxiter=2",
		})
		if err != nil {
			t.Fatal(err)
		}
		recs := []checkpoint.Record{
			{Seq: 0, Name: "a", Digest: entries[0].Digest(), Offset: 120},
			{Seq: 1, Name: "b", Digest: entries[1].Digest(), Err: true, Offset: 187},
		}
		mustDo(t, l.AppendFrequencies(pinnedPi))
		for _, r := range recs {
			mustDo(t, l.Append(r))
		}
		mustDo(t, l.Close())
		golden := comparePinned(t, path, "ledger.golden")

		check := func(path string) {
			t.Helper()
			re, err := checkpoint.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			defer re.Close()
			wantH := checkpoint.Header{Version: checkpoint.Version, ManifestDigest: manifest.Digest(entries), Genes: 3, Options: "engine=slim maxiter=2"}
			if re.Header() != wantH {
				t.Errorf("header = %+v, want %+v", re.Header(), wantH)
			}
			if !reflect.DeepEqual(re.Records(), recs) {
				t.Errorf("records = %+v, want %+v", re.Records(), recs)
			}
			samePiBits(t, re.Frequencies())
			p, err := re.Plan(entries, "engine=slim maxiter=2")
			if err != nil {
				t.Fatal(err)
			}
			if p.Skip != 2 || p.Failed != 1 || p.Offset != 187 {
				t.Errorf("plan = %+v, want skip 2, failed 1, offset 187", p)
			}
		}
		check(path)
		torn := withTornTail(t, golden, filepath.Join(dir, "torn.ckpt"))
		check(torn)
		sameFileBytes(t, torn, golden) // the torn tail was cut on open
	})

	t.Run("shard", func(t *testing.T) {
		path := filepath.Join(dir, "merged.jsonl.fanout")
		h := checkpoint.ShardHeader{ManifestDigest: manifest.Digest(entries), Genes: len(entries), Shards: 3, Options: "fp-1"}
		l, err := checkpoint.CreateShardLedger(path, h)
		if err != nil {
			t.Fatal(err)
		}
		mustDo(t, l.AppendFrequencies(pinnedPi))
		mustDo(t, l.AppendSubmit(checkpoint.ShardSubmit{Shard: 0, Endpoint: "http://127.0.0.1:8713", JobID: "j000001"}))
		mustDo(t, l.AppendSubmit(checkpoint.ShardSubmit{Shard: 1, Endpoint: "http://127.0.0.1:8714", JobID: "j000001"}))
		// Shard 1 resubmitted after its daemon died: latest wins.
		mustDo(t, l.AppendSubmit(checkpoint.ShardSubmit{Shard: 1, Endpoint: "http://127.0.0.1:8713", JobID: "j000002"}))
		mustDo(t, l.AppendDone(checkpoint.ShardDone{Shard: 0, Offset: 311}))
		mustDo(t, l.Close())
		golden := comparePinned(t, path, "shard.golden")

		check := func(path string) {
			t.Helper()
			re, err := checkpoint.OpenShardLedger(path)
			if err != nil {
				t.Fatal(err)
			}
			defer re.Close()
			h.Version = checkpoint.Version
			if re.Header() != h {
				t.Errorf("header = %+v, want %+v", re.Header(), h)
			}
			samePiBits(t, re.Frequencies())
			p, err := re.PlanShards(entries, 3, "fp-1")
			if err != nil {
				t.Fatal(err)
			}
			want := map[int]checkpoint.ShardSubmit{1: {Shard: 1, Endpoint: "http://127.0.0.1:8713", JobID: "j000002"}}
			if p.Done != 1 || p.Offset != 311 || !reflect.DeepEqual(p.Assignments, want) {
				t.Errorf("plan = %+v, want done 1, offset 311, assignments %+v", p, want)
			}
		}
		check(path)
		torn := withTornTail(t, golden, filepath.Join(dir, "torn.fanout"))
		check(torn)
		sameFileBytes(t, torn, golden)
	})

	t.Run("jobindex", func(t *testing.T) {
		path := filepath.Join(dir, "jobs.index")
		idx, err := checkpoint.OpenJobIndex(path, pinnedJobSeq)
		if err != nil {
			t.Fatal(err)
		}
		mustDo(t, idx.Put(checkpoint.JobIndexRecord{ID: "j000001", State: "queued", Total: 3, Digest: "d1", SubmittedUnixNano: 1700000000000000001}))
		mustDo(t, idx.Put(checkpoint.JobIndexRecord{ID: "j000002", Tenant: "alice", State: "queued", Total: 1, SubmittedUnixNano: 1700000000000000002}))
		// Supersede j000001 with its finished record.
		mustDo(t, idx.Put(checkpoint.JobIndexRecord{ID: "j000001", State: "done", Total: 3, Done: 3, Failed: 1, Digest: "d1",
			SubmittedUnixNano: 1700000000000000001, FinishedUnixNano: 1700000000500000000}))
		mustDo(t, idx.Put(checkpoint.JobIndexRecord{ID: "j000003", State: "failed", Error: "recovery: bad spec"}))
		mustDo(t, idx.Purge("j000002"))
		mustDo(t, idx.Close())
		comparePinned(t, path, "jobindex.golden")
		written, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}

		want := []checkpoint.JobIndexRecord{
			{ID: "j000001", State: "done", Total: 3, Done: 3, Failed: 1, Digest: "d1",
				SubmittedUnixNano: 1700000000000000001, FinishedUnixNano: 1700000000500000000},
			{ID: "j000003", State: "failed", Error: "recovery: bad spec"},
		}
		check := func(path string) {
			t.Helper()
			re, err := checkpoint.OpenJobIndex(path, pinnedJobSeq)
			if err != nil {
				t.Fatal(err)
			}
			if got := re.Records(); !reflect.DeepEqual(got, want) {
				t.Errorf("records = %+v, want %+v", got, want)
			}
			if re.MaxSeq() != 3 {
				t.Errorf("MaxSeq = %d, want 3", re.MaxSeq())
			}
			mustDo(t, re.Close())
		}
		// Reopening compacts the superseded and purged lines away.
		check(path)
		compacted := comparePinned(t, path, "jobindex.compacted.golden")
		torn := withTornTail(t, written, filepath.Join(dir, "torn.index"))
		check(torn)
		sameFileBytes(t, torn, compacted)
	})
}

// pinnedJobSeq parses the daemon's "j%06d" job-ID convention.
func pinnedJobSeq(id string) (int, bool) {
	var n int
	if _, err := fmt.Sscanf(id, "j%06d", &n); err != nil {
		return 0, false
	}
	return n, true
}

func mustDo(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// comparePinned checks the file at path against testdata/name and
// returns the golden bytes; a mismatch prints both in full.
func comparePinned(t *testing.T, path, name string) []byte {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: ledger bytes moved\n got:\n%s\nwant:\n%s", name, got, want)
	}
	return want
}

// withTornTail writes data plus a torn final line to path.
func withTornTail(t *testing.T, data []byte, path string) string {
	t.Helper()
	mustDo(t, os.WriteFile(path, append(append([]byte(nil), data...), tornTail...), 0o644))
	return path
}

func sameFileBytes(t *testing.T, path string, want []byte) {
	t.Helper()
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s after reopen:\n%s\nwant:\n%s", path, got, want)
	}
}

func samePiBits(t *testing.T, pi []float64) {
	t.Helper()
	if len(pi) != len(pinnedPi) {
		t.Fatalf("pi = %v, want %v", pi, pinnedPi)
	}
	for i := range pi {
		if math.Float64bits(pi[i]) != math.Float64bits(pinnedPi[i]) {
			t.Errorf("pi[%d] = %x, want %x", i, math.Float64bits(pi[i]), math.Float64bits(pinnedPi[i]))
		}
	}
}
