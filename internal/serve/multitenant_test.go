package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/serve"
)

// jsonDecode decodes a response body and closes it.
func jsonDecode(resp *http.Response, v any) error {
	defer resp.Body.Close()
	return json.NewDecoder(resp.Body).Decode(v)
}

// writeFileAtomic replaces path via write-temp-then-rename, the way an
// operator's editor would, so a hot-reload poll never sees a half
// write.
func writeFileAtomic(path, content string) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, []byte(content), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// tenantsFile writes a tenants file holding content to a test
// directory and returns its path.
func tenantsFile(t *testing.T, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "tenants.conf")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const (
	tokAlice = "tok-alice-8f3a2b91"
	tokBob   = "tok-bob-55e01c77"
)

// newTenantServer starts a one-runner daemon with two tenants: alice
// (max_queued=2) and bob (unlimited).
func newTenantServer(t *testing.T) (*serve.Server, *httptest.Server) {
	t.Helper()
	srv, err := serve.New(serve.Config{
		DataDir:     t.TempDir(),
		PoolWorkers: 1,
		MaxActive:   1,
		QueueDepth:  8,
		TenantsPath: tenantsFile(t, "alice "+tokAlice+" max_queued=2\nbob "+tokBob+"\n"),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Shutdown(context.Background()) })
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

// authedGet issues a GET with a bearer token and returns the response.
func authedGet(t *testing.T, url, token string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// Unauthenticated and wrongly authenticated requests against a tenancy
// daemon: 401 (with a WWW-Authenticate challenge) and 403; /healthz and
// /metrics stay open.
func TestTenancyAuthRefusals(t *testing.T) {
	_, ts := newTenantServer(t)

	resp := authedGet(t, ts.URL+"/jobs", "")
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("no token: %s, want 401", resp.Status)
	}
	if got := resp.Header.Get("WWW-Authenticate"); got == "" {
		t.Fatal("401 without a WWW-Authenticate challenge")
	}

	resp = authedGet(t, ts.URL+"/jobs", "tok-mallory-00000000")
	resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("wrong token: %s, want 403", resp.Status)
	}

	for _, path := range []string{"/healthz", "/metrics"} {
		resp = authedGet(t, ts.URL+path, "")
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s unauthenticated: %s, want 200", path, resp.Status)
		}
	}
}

// The heart of the tenancy feature, end to end over HTTP: two tenants
// saturate a one-runner daemon; dispatch follows the documented
// round-robin-by-tenant order exactly, alice's max_queued quota answers
// 429, tenants cannot see each other's jobs, and every job's results
// are byte-identical to a standalone run.
func TestTenancyFairShareEndToEnd(t *testing.T) {
	_, ts := newTenantServer(t)
	alice := serve.NewClient(ts.URL)
	alice.Token = tokAlice
	bob := serve.NewClient(ts.URL)
	bob.Token = tokBob
	ctx := context.Background()

	// A long blocker occupies the single runner while the queues fill.
	blockMani, _ := simManifest(t, 40, 6000)
	smallMani, smallEntries := simManifest(t, 2, 6100)
	blockSpec := serve.JobSpec{ManifestPath: blockMani, MaxIter: 5, Seed: 1, Concurrency: 1}
	smallSpec := serve.JobSpec{ManifestPath: smallMani, MaxIter: 1, Seed: 1, Concurrency: 1}

	blocker, err := alice.Submit(ctx, blockSpec)
	if err != nil {
		t.Fatal(err)
	}
	if blocker.Tenant != "alice" {
		t.Fatalf("blocker tenant = %q, want alice", blocker.Tenant)
	}
	// Wait until it actually runs, so everything after it queues.
	deadline := time.Now().Add(time.Minute)
	for {
		st, err := alice.JobStatus(ctx, blocker.ID)
		if err != nil {
			t.Fatal(err)
		}
		if st.State == serve.StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("blocker never started: %+v", st)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Fill the queues: alice two more (her max_queued), bob two.
	a2, err := alice.Submit(ctx, smallSpec)
	if err != nil {
		t.Fatal(err)
	}
	a3, err := alice.Submit(ctx, smallSpec)
	if err != nil {
		t.Fatal(err)
	}
	b1, err := bob.Submit(ctx, smallSpec)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := bob.Submit(ctx, smallSpec)
	if err != nil {
		t.Fatal(err)
	}

	// alice's third queued submission breaks her max_queued=2: 429.
	if _, err := alice.Submit(ctx, smallSpec); err == nil {
		t.Fatal("submission over max_queued succeeded, want 429")
	} else if ae, ok := err.(*serve.APIError); !ok || ae.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("submission over max_queued: %v, want APIError 429", err)
	}
	// bob, under no quota, is still admitted.
	b3, err := bob.Submit(ctx, smallSpec)
	if err != nil {
		t.Fatalf("bob refused despite having no quota: %v", err)
	}

	// Cross-tenant visibility: bob's job is a 404 for alice, in both
	// directions, and each listing shows only the owner's jobs.
	if _, err := alice.JobStatus(ctx, b1.ID); !serve.IsNotFound(err) {
		t.Fatalf("alice sees bob's job: %v, want 404", err)
	}
	if _, err := bob.JobStatus(ctx, a2.ID); !serve.IsNotFound(err) {
		t.Fatalf("bob sees alice's job: %v, want 404", err)
	}
	aliceJobs, err := alice.ListJobs(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range aliceJobs {
		if st.Tenant != "alice" {
			t.Fatalf("alice's listing leaks %s (tenant %q)", st.ID, st.Tenant)
		}
	}
	if len(aliceJobs) != 3 {
		t.Fatalf("alice lists %d jobs, want 3", len(aliceJobs))
	}

	// Unblock the runner. With the blocker (alice's) done, the scan
	// starts strictly after alice: b1, then a2, b2, a3, b3.
	if _, err := alice.Cancel(ctx, blocker.ID); err != nil {
		t.Fatal(err)
	}

	order := []string{b1.ID, a2.ID, b2.ID, a3.ID, b3.ID}
	type started struct {
		id string
		at time.Time
	}
	var starts []started
	for _, id := range order {
		c := alice
		if id == b1.ID || id == b2.ID || id == b3.ID {
			c = bob
		}
		deadline := time.Now().Add(3 * time.Minute)
		for {
			st, err := c.JobStatus(ctx, id)
			if err != nil {
				t.Fatal(err)
			}
			if st.State == serve.StateDone {
				if st.Started == nil {
					t.Fatalf("done job %s has no start time", id)
				}
				starts = append(starts, started{id, *st.Started})
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("job %s never finished: %+v", id, st)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	// One runner → strictly serial → start times are the dispatch
	// order. Sort by time and compare against the documented policy.
	sort.Slice(starts, func(i, j int) bool { return starts[i].at.Before(starts[j].at) })
	var got []string
	for _, s := range starts {
		got = append(got, s.id)
	}
	for i := range order {
		if got[i] != order[i] {
			t.Fatalf("dispatch order:\n got %v\nwant %v (round-robin by tenant)", got, order)
		}
	}

	// Determinism is tenant-blind: each small job's results are
	// byte-identical to a standalone run of the same manifest.
	want := expectedJSONL(t, smallEntries, core.StreamOptions{BatchOptions: core.BatchOptions{
		Options: core.Options{Engine: core.EngineSlim, MaxIterations: smallSpec.MaxIter, Seed: smallSpec.Seed},
	}})
	for _, probe := range []struct {
		c  *serve.Client
		id string
	}{{alice, a2.ID}, {bob, b1.ID}} {
		rc, _, err := probe.c.FollowResults(ctx, probe.id, 0)
		if err != nil {
			t.Fatal(err)
		}
		data, err := io.ReadAll(rc)
		rc.Close()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data, want) {
			t.Fatalf("job %s results diverge from a standalone run\ngot:  %q\nwant: %q", probe.id, data, want)
		}
	}

	// The health report carries per-tenant occupancy and counters that
	// reconcile with what just happened.
	var h serve.Health
	resp := authedGet(t, ts.URL+"/healthz", "")
	if err := jsonDecode(resp, &h); err != nil {
		t.Fatal(err)
	}
	byName := map[string]serve.TenantHealth{}
	for _, th := range h.Tenants {
		byName[th.Name] = th
	}
	if th := byName["alice"]; th.QuotaRefusals != 1 || th.Submitted != 3 {
		t.Fatalf("alice health = %+v, want 3 submitted, 1 quota refusal", th)
	}
	if th := byName["bob"]; th.Submitted != 3 || th.QuotaRefusals != 0 {
		t.Fatalf("bob health = %+v, want 3 submitted, 0 refusals", th)
	}
}

// Tenants-file hot reload: a token added after startup starts working
// without a restart; a broken edit keeps the previous set live.
func TestTenantsHotReload(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/tenants.conf"
	if err := writeFileAtomic(path, "alice "+tokAlice+"\n"); err != nil {
		t.Fatal(err)
	}
	srv, err := serve.New(serve.Config{
		DataDir:     t.TempDir(),
		PoolWorkers: 1,
		MaxActive:   1,
		QueueDepth:  4,
		TenantsPath: path,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp := authedGet(t, ts.URL+"/jobs", tokBob)
	resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("bob before reload: %s, want 403", resp.Status)
	}

	// Add bob and reload explicitly (the mtime watcher also picks this
	// up, but the test shouldn't sleep on a poll interval).
	if err := writeFileAtomic(path, "alice "+tokAlice+"\nbob "+tokBob+"\n"); err != nil {
		t.Fatal(err)
	}
	if err := srv.ReloadTenants(); err != nil {
		t.Fatal(err)
	}
	resp = authedGet(t, ts.URL+"/jobs", tokBob)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("bob after reload: %s, want 200", resp.Status)
	}

	// A broken edit must not lock anyone out: reload fails, the
	// previous set stays.
	if err := writeFileAtomic(path, "not a valid line\n"); err != nil {
		t.Fatal(err)
	}
	if err := srv.ReloadTenants(); err == nil {
		t.Fatal("reload of a broken file succeeded")
	}
	resp = authedGet(t, ts.URL+"/jobs", tokBob)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("bob after failed reload: %s, want 200 (previous set retained)", resp.Status)
	}
}
