package fanout_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/align"
	"repro/internal/bsm"
	"repro/internal/codon"
	"repro/internal/core"
	"repro/internal/fanout"
	"repro/internal/manifest"
	"repro/internal/serve"
	"repro/internal/sim"
)

// simManifest simulates n small genes under the seed offset and
// returns their manifest entries (absolute paths).
func simManifest(t *testing.T, n int, seedOff int64) []manifest.Entry {
	t.Helper()
	dir := t.TempDir()
	entries := make([]manifest.Entry, n)
	for i := range entries {
		tree, err := sim.RandomTree(sim.TreeConfig{Species: 4, MeanBranchLength: 0.2, Seed: seedOff + int64(i)})
		if err != nil {
			t.Fatal(err)
		}
		aln, err := sim.Simulate(tree, codon.Universal, sim.SeqConfig{
			Sites:  24,
			Params: bsm.Params{Kappa: 2, Omega0: 0.2, Omega2: 3, P0: 0.5, P1: 0.3},
			Seed:   seedOff + 100 + int64(i),
		})
		if err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprintf("g%02d", i)
		alnPath := filepath.Join(dir, name+".fasta")
		f, err := os.Create(alnPath)
		if err != nil {
			t.Fatal(err)
		}
		if err := align.WriteFasta(f, aln); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		treePath := filepath.Join(dir, name+".nwk")
		if err := os.WriteFile(treePath, []byte(tree.String()+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		entries[i] = manifest.Entry{Name: name, AlignPath: alnPath, TreePath: treePath}
	}
	return entries
}

// expectedJSONL runs the stream in-process and renders the
// deterministic JSONL projection the daemons checkpoint — the bytes a
// fan-out's merged output must reproduce exactly.
func expectedJSONL(t *testing.T, entries []manifest.Entry, opts core.StreamOptions) []byte {
	t.Helper()
	var col core.CollectSink
	if _, err := core.RunBatchStream(context.Background(), core.NewManifestSource(entries, align.FormatAuto), &col, opts); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for _, r := range col.Results() {
		rec := core.NewGeneRecord(r)
		rec.RuntimeSec = 0
		b, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(b)
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}

// daemon is one real job service on a loopback listener.
type daemon struct {
	srv *serve.Server
	ts  *httptest.Server
}

func startDaemon(t *testing.T, maxActive int) *daemon {
	t.Helper()
	return startCachingDaemon(t, maxActive, "")
}

// startCachingDaemon starts a daemon with a fresh data directory over
// the given cross-run cache directory ("" for none).
func startCachingDaemon(t *testing.T, maxActive int, cacheDir string) *daemon {
	t.Helper()
	srv, err := serve.New(serve.Config{
		DataDir:     t.TempDir(),
		PoolWorkers: 1,
		MaxActive:   maxActive,
		QueueDepth:  16,
		CacheDir:    cacheDir,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Shutdown(context.Background())
	})
	return &daemon{srv: srv, ts: ts}
}

// kill tears the daemon down hard: the listener closes and the server
// stops, so the coordinator sees connection failures.
func (d *daemon) kill() {
	d.ts.CloseClientConnections()
	d.ts.Close()
	d.srv.Shutdown(context.Background())
}

var testSpec = serve.JobSpec{MaxIter: 1, Seed: 1, Concurrency: 1}

func testOpts() core.StreamOptions {
	return core.StreamOptions{BatchOptions: core.BatchOptions{
		Options: core.Options{Engine: core.EngineSlim, MaxIterations: 1, Seed: 1},
	}}
}

// The tier-5 contract: a fan-out over three real daemons merges shard
// results into output byte-identical to a standalone single-process
// run — and with Purge set, leaves no jobs behind on any daemon.
func TestFanoutParityAcrossDaemons(t *testing.T) {
	entries := simManifest(t, 9, 1000)
	var daemons []*daemon
	var eps []string
	for i := 0; i < 3; i++ {
		d := startDaemon(t, 1)
		daemons = append(daemons, d)
		eps = append(eps, d.ts.URL)
	}
	outPath := filepath.Join(t.TempDir(), "merged.jsonl")
	sum, err := fanout.Run(context.Background(), fanout.Config{
		Entries:   entries,
		Endpoints: eps,
		OutPath:   outPath,
		Spec:      testSpec,
		Purge:     true,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The default queue cut is four shards per endpoint.
	if sum.Shards != 12 || sum.Genes != 9 || sum.Skipped != 0 {
		t.Fatalf("summary %+v, want 12 shards / 9 genes / 0 skipped", sum)
	}
	got, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	want := expectedJSONL(t, entries, testOpts())
	if !bytes.Equal(got, want) {
		t.Fatalf("fan-out output diverges from standalone run\ngot:  %q\nwant: %q", got, want)
	}
	// Purge emptied every daemon.
	for i, d := range daemons {
		jobs, err := serve.NewClient(d.ts.URL).ListJobs(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if len(jobs) != 0 {
			t.Fatalf("daemon %d still lists %d jobs after purge", i, len(jobs))
		}
	}
}

// More shards than rows: the empty shards contribute nothing and the
// merge still matches the standalone run.
func TestFanoutEmptyShards(t *testing.T) {
	entries := simManifest(t, 2, 1500)
	d := startDaemon(t, 2)
	outPath := filepath.Join(t.TempDir(), "merged.jsonl")
	if _, err := fanout.Run(context.Background(), fanout.Config{
		Entries:   entries,
		Endpoints: []string{d.ts.URL},
		Shards:    4,
		OutPath:   outPath,
		Spec:      testSpec,
	}); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	if want := expectedJSONL(t, entries, testOpts()); !bytes.Equal(got, want) {
		t.Fatalf("fan-out output diverges\ngot:  %q\nwant: %q", got, want)
	}
}

// A killed coordinator must resume: the second run skips the shards
// already merged, adopts jobs still running on their daemons, and the
// final output is byte-identical to an uninterrupted standalone run.
func TestFanoutCoordinatorKillResume(t *testing.T) {
	entries := simManifest(t, 12, 2000)
	d := startDaemon(t, 1)
	outPath := filepath.Join(t.TempDir(), "merged.jsonl")
	cfg := fanout.Config{
		Entries:   entries,
		Endpoints: []string{d.ts.URL},
		Shards:    3,
		OutPath:   outPath,
		Spec:      testSpec,
	}

	ctx, cancel := context.WithCancel(context.Background())
	cfg.OnAppended = func(shard int, offset int64) {
		if shard == 0 {
			cancel() // kill the coordinator right after its first merge
		}
	}
	_, err := fanout.Run(ctx, cfg)
	if err == nil {
		t.Fatal("cancelled coordinator reported success")
	}

	cfg.OnAppended = nil
	sum, err := fanout.Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Skipped < 1 {
		t.Fatalf("resumed run skipped %d shards, want >= 1", sum.Skipped)
	}
	got, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	if want := expectedJSONL(t, entries, testOpts()); !bytes.Equal(got, want) {
		t.Fatalf("resumed fan-out output diverges\ngot:  %q\nwant: %q", got, want)
	}
}

// Resuming under different options must be refused up front.
func TestFanoutResumeRefusesChangedOptions(t *testing.T) {
	entries := simManifest(t, 4, 2500)
	d := startDaemon(t, 1)
	outPath := filepath.Join(t.TempDir(), "merged.jsonl")
	cfg := fanout.Config{
		Entries:   entries,
		Endpoints: []string{d.ts.URL},
		OutPath:   outPath,
		Spec:      testSpec,
	}
	if _, err := fanout.Run(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	cfg.Spec.Seed = 99
	if _, err := fanout.Run(context.Background(), cfg); err == nil {
		t.Fatal("resume with changed seed succeeded; want a refused ledger")
	}
}

// Kill one daemon of two mid-run: its shards must be resubmitted to
// the survivor and the merged output must still match the standalone
// run byte for byte.
func TestFanoutDaemonKilledMidRun(t *testing.T) {
	entries := simManifest(t, 8, 3000)
	d0 := startDaemon(t, 1)
	d1 := startDaemon(t, 1)
	outPath := filepath.Join(t.TempDir(), "merged.jsonl")

	killed := false
	cfg := fanout.Config{
		Entries:      entries,
		Endpoints:    []string{d0.ts.URL, d1.ts.URL},
		Shards:       2,
		OutPath:      outPath,
		Spec:         testSpec,
		MaxResubmits: 3,
		OnSubmitted: func(shard int, endpoint, jobID string) {
			// As soon as shard 1 lands on daemon 1, take daemon 1 down —
			// synchronously, so the job is guaranteed gone before the
			// coordinator's first status poll.
			if endpoint == d1.ts.URL && !killed {
				killed = true
				d1.kill()
			}
		},
	}
	sum, err := fanout.Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !killed {
		t.Fatal("daemon 1 was never submitted to, so the kill path was not exercised")
	}
	if sum.Resubmits < 1 {
		t.Fatalf("summary %+v: expected at least one resubmission after the daemon kill", sum)
	}
	got, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	if want := expectedJSONL(t, entries, testOpts()); !bytes.Equal(got, want) {
		t.Fatalf("post-kill fan-out output diverges\ngot:  %q\nwant: %q", got, want)
	}
}

// With coordinator defaults, a fan-out whose shards finish at once
// (every gene replayed from the daemons' warm cache) merges as fast as
// the daemons deliver: the coordinator wakes on each stream's end
// instead of sleeping between scheduling rounds.
func TestFanoutCachedShardsMergeWithoutWaiting(t *testing.T) {
	entries := simManifest(t, 8, 5000)
	cacheDir := t.TempDir()
	run := func() ([]byte, time.Duration) {
		// Fresh daemons and output each time; only the cache is shared.
		eps := []string{startCachingDaemon(t, 1, cacheDir).ts.URL, startCachingDaemon(t, 1, cacheDir).ts.URL}
		outPath := filepath.Join(t.TempDir(), "merged.jsonl")
		sum, err := fanout.Run(context.Background(), fanout.Config{
			Entries:   entries,
			Endpoints: eps,
			OutPath:   outPath,
			Spec:      testSpec,
		})
		if err != nil {
			t.Fatal(err)
		}
		if sum.Shards != 8 {
			t.Fatalf("summary %+v, want the default 8 shards over 2 endpoints", sum)
		}
		got, err := os.ReadFile(outPath)
		if err != nil {
			t.Fatal(err)
		}
		return got, sum.Runtime
	}
	cold, _ := run()
	warm, took := run()
	if !bytes.Equal(warm, cold) {
		t.Fatal("replayed fan-out output diverges from the cold run")
	}
	if want := expectedJSONL(t, entries, testOpts()); !bytes.Equal(warm, want) {
		t.Fatalf("fan-out output diverges from standalone run\ngot:  %q\nwant: %q", warm, want)
	}
	t.Logf("warm fan-out: %s", took)
	if took >= time.Second {
		t.Fatalf("8 cache-replayed shards took %s to merge, want under 1 s", took)
	}
}
