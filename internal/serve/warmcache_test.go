package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/serve"
)

// TestServeWarmCacheAcrossRestart is the fleet-tier acceptance check: a
// daemon with a -cachedir analyzes a manifest, is torn down, and a
// fresh daemon (new data directory, same cache directory) re-runs the
// same job — the second run replays every gene from the warm cache,
// byte-identical, and /healthz exposes the hit counters through the
// typed client.
func TestServeWarmCacheAcrossRestart(t *testing.T) {
	cacheDir := t.TempDir()
	maniPath, _ := simManifest(t, 4, 9700)
	spec := serve.JobSpec{ManifestPath: maniPath, MaxIter: 1, Seed: 1}

	runOnce := func() []byte {
		srv, err := serve.New(serve.Config{
			DataDir:     t.TempDir(),
			PoolWorkers: 2,
			MaxActive:   1,
			QueueDepth:  4,
			CacheDir:    cacheDir,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Shutdown(context.Background())
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()

		st := postJob(t, ts.URL, spec)
		st = pollUntil(t, ts.URL, st.ID, func(s serve.Status) bool { return s.State == serve.StateDone }, "done")
		if st.Failed != 0 {
			t.Fatalf("job finished with %d failed genes", st.Failed)
		}
		results := fetchResults(t, ts.URL, st.ID)

		health, err := serve.NewClient(ts.URL).Health(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if health.Cache == nil || health.Cache.Persist == nil {
			t.Fatal("healthz of a daemon with a cache dir reports no cache section")
		}
		t.Logf("cache health: %+v persist: %+v", *health.Cache, *health.Cache.Persist)
		return results
	}

	cold := runOnce()
	warm := runOnce()
	if !bytes.Equal(warm, cold) {
		t.Fatal("warm daemon run is not byte-identical to the cold run")
	}

	// Verify the warm daemon actually replayed: a third daemon's health
	// counters after one fully-warm job must show 4 result hits.
	srv, err := serve.New(serve.Config{
		DataDir:     t.TempDir(),
		PoolWorkers: 2,
		MaxActive:   1,
		QueueDepth:  4,
		CacheDir:    cacheDir,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	st := postJob(t, ts.URL, spec)
	pollUntil(t, ts.URL, st.ID, func(s serve.Status) bool { return s.State == serve.StateDone }, "done")
	health, err := serve.NewClient(ts.URL).Health(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if health.Cache == nil || health.Cache.Persist == nil || health.Cache.Persist.ResultHits != 4 {
		t.Fatalf("warm daemon scored no full replay: %+v", health.Cache)
	}
}

// TestServeWithoutCacheDir pins the default-off behavior: no CacheDir
// means no cache persistence and no persist section in /healthz, while
// the in-memory decomposition counters still report.
func TestServeWithoutCacheDir(t *testing.T) {
	srv, err := serve.New(serve.Config{
		DataDir:     t.TempDir(),
		PoolWorkers: 1,
		MaxActive:   1,
		QueueDepth:  2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	health, err := serve.NewClient(ts.URL).Health(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if health.Cache == nil {
		t.Fatal("healthz reports no cache section")
	}
	if health.Cache.Persist != nil {
		t.Fatal("healthz reports persistent counters without a cache dir")
	}
}

// TestServeRejectsWarmStartSpec pins that the removed warm_start field
// is refused at intake: the submit decoder disallows unknown fields, so
// a client still sending it gets a 400 naming the field, not a job that
// silently runs cold.
func TestServeRejectsWarmStartSpec(t *testing.T) {
	srv, err := serve.New(serve.Config{DataDir: t.TempDir(), PoolWorkers: 1, MaxActive: 1, QueueDepth: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	maniPath, _ := simManifest(t, 1, 9750)
	body, err := json.Marshal(map[string]any{"manifest_path": maniPath, "max_iter": 1, "warm_start": true})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var msg struct{ Error string }
	if err := json.NewDecoder(resp.Body).Decode(&msg); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(msg.Error, `unknown field "warm_start"`) {
		t.Fatalf("submit with warm_start: %s %q, want 400 naming the field", resp.Status, msg.Error)
	}
}

// TestServeWarmStartJobRecoversAsFailed upgrades a data directory that
// holds a warm-start job: its persisted spec carries warm_start and its
// ledger header the warmstart=true marker. The restarted daemon reads
// the spec as a cold job, so the ledger's fingerprint no longer matches
// and the job is marked failed through the recovery_failed event. It
// never resumes the warm ledger under the cold fingerprint.
func TestServeWarmStartJobRecoversAsFailed(t *testing.T) {
	dataDir := t.TempDir()
	maniPath, _ := simManifest(t, 2, 9760)
	cfg := serve.Config{DataDir: dataDir, PoolWorkers: 1, MaxActive: 1, QueueDepth: 2}

	srv1, err := serve.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(srv1.Handler())
	st := postJob(t, ts1.URL, serve.JobSpec{ManifestPath: maniPath, MaxIter: 1, Seed: 1})
	pollUntil(t, ts1.URL, st.ID, func(s serve.Status) bool { return s.State == serve.StateDone }, "done")
	if err := srv1.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	ts1.Close()

	// Rewrite the finished job as a warm-start job wrote it.
	specPath := filepath.Join(dataDir, st.ID+".job.json")
	data, err := os.ReadFile(specPath)
	if err != nil {
		t.Fatal(err)
	}
	var spec map[string]any
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	spec["warm_start"] = true
	if data, err = json.Marshal(spec); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(specPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	ledgerPath := checkpoint.LedgerPath(filepath.Join(dataDir, st.ID+".jsonl"))
	ledger, err := checkpoint.Open(ledgerPath)
	if err != nil {
		t.Fatal(err)
	}
	coldFP := ledger.Header().Options
	ledger.Close()
	raw, err := os.ReadFile(ledgerPath)
	if err != nil {
		t.Fatal(err)
	}
	warm := bytes.Replace(raw, []byte(`"options":"`+coldFP+`"`), []byte(`"options":"`+coldFP+` warmstart=true"`), 1)
	if bytes.Equal(warm, raw) {
		t.Fatalf("ledger header options %q not found in:\n%s", coldFP, raw)
	}
	if err := os.WriteFile(ledgerPath, warm, 0o644); err != nil {
		t.Fatal(err)
	}
	// Drop the job index: its done record would list the job without
	// reading the spec or ledger. The rebuild from the directory scan
	// revalidates the job, as it does for a job that was still running.
	if err := os.Remove(checkpoint.JobIndexPath(dataDir)); err != nil {
		t.Fatal(err)
	}

	srv2, err := serve.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Shutdown(context.Background())
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	got := getStatus(t, ts2.URL, st.ID)
	if got.State != serve.StateFailed || !strings.Contains(got.Error, "run options changed") ||
		!strings.Contains(got.Error, "warmstart=true") {
		t.Fatalf("recovered warm-start job: state %s, error %q; want failed over the warmstart=true ledger", got.State, got.Error)
	}
	exp, err := serve.NewClient(ts2.URL).Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if n := metricValue(t, exp, `slimcodemld_jobs_total{event="recovery_failed"}`); n != 1 {
		t.Fatalf(`slimcodemld_jobs_total{event="recovery_failed"} = %v, want 1`, n)
	}
}
