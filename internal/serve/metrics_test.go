package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
)

// metricValue extracts one sample's value from a text exposition. The
// sample is named exactly as exposed, labels included, e.g.
// `slimcodemld_jobs_total{event="submitted"}`.
func metricValue(t *testing.T, exposition []byte, sample string) float64 {
	t.Helper()
	for _, line := range strings.Split(string(exposition), "\n") {
		rest, ok := strings.CutPrefix(line, sample+" ")
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
		if err != nil {
			t.Fatalf("sample %s: bad value %q", sample, rest)
		}
		return v
	}
	t.Fatalf("exposition lacks sample %s:\n%s", sample, exposition)
	return 0
}

// TestMetricsEndpoint drives a daemon through a cold job and a warm
// (replayed) rerun, then checks /metrics end to end: the exposition is
// format-conformant, the lifecycle and stream series carry the
// expected values, HTTP series are labelled by route pattern, and —
// the /healthz contract — every cache number /healthz reports equals
// the corresponding /metrics series, because both read the same
// counters.
func TestMetricsEndpoint(t *testing.T) {
	maniPath, entries := simManifest(t, 3, 500)
	srv, err := serve.New(serve.Config{
		DataDir:     t.TempDir(),
		PoolWorkers: 2,
		CacheDir:    t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	spec := serve.JobSpec{
		ManifestPath: maniPath, Engine: "slim", MaxIter: 1, Seed: 1,
		ShareFrequencies: true,
	}
	st := postJob(t, ts.URL, spec)
	pollUntil(t, ts.URL, st.ID, func(s serve.Status) bool { return s.State == serve.StateDone }, "done")
	st2 := postJob(t, ts.URL, spec)
	pollUntil(t, ts.URL, st2.ID, func(s serve.Status) bool { return s.State == serve.StateDone }, "done")

	cl := serve.NewClient(ts.URL)
	ctx := context.Background()
	health, err := cl.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	exp, err := cl.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.CheckExposition(exp); err != nil {
		t.Fatalf("live /metrics not conformant: %v\n%s", err, exp)
	}

	n := float64(len(entries))
	for sample, want := range map[string]float64{
		`slimcodemld_jobs_total{event="submitted"}`: 2,
		`slimcodemld_jobs_total{event="done"}`:      2,
		"slimcodemld_active_jobs":                   0,
		"slimcodemld_queue_depth":                   0,
		"slimcodemld_pool_workers":                  2,
		// The cold job fitted every gene; the warm rerun replayed every
		// gene from the persistent result store without fitting.
		"slimcodeml_stream_gene_fit_seconds_count":   n,
		"slimcodeml_stream_replayed_total":           n,
		`slimcodeml_stream_genes_total{result="ok"}`: 2 * n,
		"slimcodeml_stream_prefetch_occupancy":       0,
		"slimcodeml_stream_fits_inflight":            0,
	} {
		if got := metricValue(t, exp, sample); got != want {
			t.Errorf("%s = %v, want %v", sample, got, want)
		}
	}

	// HTTP series are labelled by matched route pattern, never raw path.
	for _, sample := range []string{
		`slimcodemld_http_requests_total{route="POST /jobs",code="202"}`,
		`slimcodemld_http_requests_total{route="GET /healthz",code="200"}`,
	} {
		if v := metricValue(t, exp, sample); v < 1 {
			t.Errorf("%s = %v, want >= 1", sample, v)
		}
	}
	if strings.Contains(string(exp), st.ID) {
		t.Errorf("exposition leaks a raw job id (unbounded label cardinality):\n%s", exp)
	}

	// /healthz and /metrics agree on every cache number: same counters,
	// read at (quiescent) scrape time by both.
	ch := health.Cache
	if ch == nil {
		t.Fatal("healthz lacks cache section")
	}
	if ch.Persist == nil {
		t.Fatal("healthz lacks persist counters despite CacheDir")
	}
	for sample, want := range map[string]int{
		"slimcodemld_decomp_cache_hits_total":      ch.DecompHits,
		"slimcodemld_decomp_cache_misses_total":    ch.DecompMisses,
		"slimcodemld_decomp_cache_evictions_total": ch.DecompEvictions,
		"slimcodemld_decomp_cache_entries":         ch.DecompEntries,
		"slimcodemld_persist_result_hits_total":    ch.Persist.ResultHits,
		"slimcodemld_persist_result_misses_total":  ch.Persist.ResultMisses,
		"slimcodemld_persist_result_writes_total":  ch.Persist.ResultWrites,
	} {
		if got := metricValue(t, exp, sample); got != float64(want) {
			t.Errorf("%s = %v but /healthz reports %d", sample, got, want)
		}
	}
	// Sanity: the warm rerun actually hit the persistent result store —
	// the agreement above is not vacuously about zeroes.
	if ch.Persist.ResultHits < len(entries) {
		t.Errorf("persist result hits = %d, want >= %d (warm rerun should replay)",
			ch.Persist.ResultHits, len(entries))
	}
}

// TestTenantMetricsHealthzAgreement extends the healthz↔metrics
// contract to the per-tenant series: every number in the /healthz
// tenants section equals the corresponding slimcodemld_tenant_* sample,
// because /healthz reads the very gauges and counters the scheduler
// hooks write. Auth outcomes are counted, and an idle tenant's series
// pre-exist at zero rather than popping up on first use.
func TestTenantMetricsHealthzAgreement(t *testing.T) {
	srv, err := serve.New(serve.Config{
		DataDir:     t.TempDir(),
		PoolWorkers: 1,
		MaxActive:   1,
		QueueDepth:  4,
		TenantsPath: tenantsFile(t, "alice tok-alice-8f3a2b91 max_queued=1\nbob tok-bob-55e01c77\n"),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	alice := serve.NewClient(ts.URL)
	alice.Token = "tok-alice-8f3a2b91"
	ctx := context.Background()

	maniPath, _ := simManifest(t, 1, 540)
	spec := serve.JobSpec{ManifestPath: maniPath, MaxIter: 1, Seed: 1}
	st, err := alice.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	// Saturate alice's max_queued=1 for a quota refusal. The first job
	// may already be running (not queued), so submit until the 429.
	refused := false
	for i := 0; i < 3 && !refused; i++ {
		if _, err := alice.Submit(ctx, spec); err != nil {
			if !strings.Contains(err.Error(), "429") {
				t.Fatalf("unexpected submit error: %v", err)
			}
			refused = true
		}
	}
	// Unauthenticated and wrong-token probes for the auth counters.
	mallory := serve.NewClient(ts.URL)
	if _, err := mallory.ListJobs(ctx); err == nil {
		t.Fatal("unauthenticated list succeeded")
	}
	mallory.Token = "tok-wrong-00000000"
	if _, err := mallory.ListJobs(ctx); err == nil {
		t.Fatal("wrong-token list succeeded")
	}

	// Quiesce before comparing the two surfaces.
	deadline := time.Now().Add(3 * time.Minute)
	for {
		s, err := alice.JobStatus(ctx, st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if s.State == serve.StateDone {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never finished: %+v", s)
		}
		time.Sleep(20 * time.Millisecond)
	}
	jobs, err := alice.ListJobs(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs {
		for {
			s, err := alice.JobStatus(ctx, j.ID)
			if err != nil {
				t.Fatal(err)
			}
			if s.State == serve.StateDone {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("job %s never finished", j.ID)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}

	cl := serve.NewClient(ts.URL)
	health, err := cl.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	exp, err := cl.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.CheckExposition(exp); err != nil {
		t.Fatalf("tenancy /metrics not conformant: %v\n%s", err, exp)
	}

	if len(health.Tenants) != 2 {
		t.Fatalf("healthz tenants = %+v, want alice and bob", health.Tenants)
	}
	for _, th := range health.Tenants {
		for sample, want := range map[string]int{
			`slimcodemld_tenant_active_jobs{tenant="` + th.Name + `"}`:           th.Active,
			`slimcodemld_tenant_queued_jobs{tenant="` + th.Name + `"}`:           th.Queued,
			`slimcodemld_tenant_jobs_submitted_total{tenant="` + th.Name + `"}`:  th.Submitted,
			`slimcodemld_tenant_jobs_dispatched_total{tenant="` + th.Name + `"}`: th.Dispatched,
			`slimcodemld_tenant_quota_refusals_total{tenant="` + th.Name + `"}`:  th.QuotaRefusals,
		} {
			if got := metricValue(t, exp, sample); got != float64(want) {
				t.Errorf("%s = %v but /healthz reports %d", sample, got, want)
			}
		}
	}
	// The numbers reconcile with what the test did — not vacuous zeroes.
	byName := map[string]serve.TenantHealth{}
	for _, th := range health.Tenants {
		byName[th.Name] = th
	}
	if a := byName["alice"]; a.Submitted < 1 || a.QuotaRefusals < 1 || a.Dispatched != a.Submitted {
		t.Errorf("alice's counters don't reconcile: %+v", a)
	}
	// bob never showed up, yet his series are pre-created at zero.
	if b := byName["bob"]; b.Submitted != 0 || b.QuotaRefusals != 0 {
		t.Errorf("idle bob has nonzero counters: %+v", b)
	}
	for sample, wantMin := range map[string]float64{
		`slimcodemld_auth_requests_total{outcome="ok"}`:      1,
		`slimcodemld_auth_requests_total{outcome="missing"}`: 1,
		`slimcodemld_auth_requests_total{outcome="denied"}`:  1,
	} {
		if got := metricValue(t, exp, sample); got < wantMin {
			t.Errorf("%s = %v, want >= %v", sample, got, wantMin)
		}
	}
}

// TestStructuredEvents checks the daemon's slog surface: the retention
// sweeper and restart recovery emit structured events naming the job,
// and a corrupt persisted spec surfaces as a revalidation refusal.
func TestStructuredEvents(t *testing.T) {
	maniPath, _ := simManifest(t, 1, 520)
	dataDir := t.TempDir()
	var logBuf bytes.Buffer
	logger, err := obs.NewLogger(&logBuf, "json")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := serve.New(serve.Config{
		DataDir: dataDir, PoolWorkers: 1,
		Retain: 50 * time.Millisecond,
		Log:    logger,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	st := postJob(t, ts.URL, serve.JobSpec{ManifestPath: maniPath, Engine: "slim", MaxIter: 1, Seed: 1})
	pollUntil(t, ts.URL, st.ID, func(s serve.Status) bool { return s.State == serve.StateDone }, "done")
	// Wait for the sweep to purge the expired job.
	deadline := time.Now().Add(30 * time.Second)
	for {
		if _, ok := srv.Job(st.ID); !ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("retention sweep never purged the job")
		}
		time.Sleep(20 * time.Millisecond)
	}
	ts.Close()
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	events := make(map[string]map[string]any) // msg -> last record
	for _, line := range strings.Split(logBuf.String(), "\n") {
		if line == "" {
			continue
		}
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("log line is not JSON: %q", line)
		}
		msg, _ := rec["msg"].(string)
		events[msg] = rec
	}
	for _, msg := range []string{"job submitted", "job started", "job finished",
		"retention sweep purged expired job"} {
		rec, ok := events[msg]
		if !ok {
			t.Errorf("log lacks event %q (have %v)", msg, logBuf.String())
			continue
		}
		if got, _ := rec["job"].(string); got != st.ID {
			t.Errorf("event %q names job %q, want %q", msg, got, st.ID)
		}
	}

	// Restart recovery over a corrupt spec: the refusal is a structured
	// warning naming the job and the reason, and the job lands failed.
	if err := os.WriteFile(filepath.Join(dataDir, "j000009.job.json"), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	logBuf.Reset()
	srv2, err := serve.New(serve.Config{DataDir: dataDir, PoolWorkers: 1, Log: logger})
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Shutdown(context.Background())
	found := false
	for _, line := range strings.Split(logBuf.String(), "\n") {
		if strings.Contains(line, "job revalidation refused") && strings.Contains(line, "j000009") {
			found = true
		}
	}
	if !found {
		t.Errorf("recovery refusal not logged:\n%s", logBuf.String())
	}
	job, ok := srv2.Job("j000009")
	if !ok || job.Status().State != serve.StateFailed {
		t.Errorf("corrupt-spec job not recovered as failed")
	}
}
