package serve_test

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/serve"
)

// jobFiles counts the data-directory files belonging to one job id.
func jobFiles(t *testing.T, dataDir, id string) int {
	t.Helper()
	des, err := os.ReadDir(dataDir)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, de := range des {
		if strings.HasPrefix(de.Name(), id+".") {
			n++
		}
	}
	return n
}

// pollClient polls the job through the typed client until pred holds.
func pollClient(t *testing.T, c *serve.Client, id string, pred func(serve.Status) bool, what string) {
	t.Helper()
	deadline := time.Now().Add(time.Minute)
	for {
		st, err := c.JobStatus(context.Background(), id)
		if err != nil {
			t.Fatal(err)
		}
		if pred(st) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never reached %s: %+v", id, what, st)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// Purge (DELETE ?purge=1, via the typed client) must refuse an active
// job with 409, must remove a finished job's files and listing, and
// the -retain TTL sweep must do the same automatically once a
// finished job ages out. Also exercises the typed client's health,
// submit, status, cancel and error-classification paths.
func TestServePurgeAndRetention(t *testing.T) {
	dataDir := t.TempDir()
	srv, err := serve.New(serve.Config{
		DataDir:     dataDir,
		PoolWorkers: 1,
		MaxActive:   1,
		QueueDepth:  8,
		Retain:      300 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := serve.NewClient(ts.URL)
	ctx := context.Background()

	h, err := client.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.PoolWorkers != 1 {
		t.Fatalf("health %+v, want ok / 1 pool worker", h)
	}

	// A long job: purging it while active must be a 409.
	longMani, _ := simManifest(t, 30, 9000)
	long, err := client.Submit(ctx, serve.JobSpec{ManifestPath: longMani, MaxIter: 5, Seed: 1, Concurrency: 1})
	if err != nil {
		t.Fatal(err)
	}
	err = client.Purge(ctx, long.ID)
	var ae *serve.APIError
	if !errors.As(err, &ae) || ae.StatusCode != 409 {
		t.Fatalf("active purge: %v, want a 409 API error", err)
	}
	// Cancelled jobs are purgeable.
	if _, err := client.Cancel(ctx, long.ID); err != nil {
		t.Fatal(err)
	}
	pollClient(t, client, long.ID, func(s serve.Status) bool { return s.State == serve.StateCancelled }, "cancelled")
	if err := client.Purge(ctx, long.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := client.JobStatus(ctx, long.ID); !serve.IsNotFound(err) {
		t.Fatalf("purged job still answers: %v", err)
	}
	if n := jobFiles(t, dataDir, long.ID); n != 0 {
		t.Fatalf("purge left %d files behind", n)
	}

	// TTL sweep: a finished job disappears on its own, files and all.
	quickMani, _ := simManifest(t, 2, 9100)
	quick, err := client.Submit(ctx, serve.JobSpec{ManifestPath: quickMani, MaxIter: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	pollClient(t, client, quick.ID, func(s serve.Status) bool { return s.State == serve.StateDone }, "done")
	if n := jobFiles(t, dataDir, quick.ID); n == 0 {
		t.Fatal("finished job left no files for the sweep to purge")
	}
	deadline := time.Now().Add(time.Minute)
	for {
		_, err := client.JobStatus(ctx, quick.ID)
		if serve.IsNotFound(err) {
			break // swept
		}
		if err != nil {
			t.Fatal(err)
		}
		if time.Now().After(deadline) {
			t.Fatal("retention sweep never purged the finished job")
		}
		time.Sleep(20 * time.Millisecond)
	}
	if n := jobFiles(t, dataDir, quick.ID); n != 0 {
		t.Fatalf("retention sweep left %d files behind", n)
	}

	// purge=0 is an explicit plain cancel, never a purge; garbage
	// purge values are a 400, not a destructive default.
	tail, _ := simManifest(t, 20, 9200)
	tailJob, err := client.Submit(ctx, serve.JobSpec{ManifestPath: tail, MaxIter: 5, Seed: 1, Concurrency: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{"banana", "0"} {
		req, err := http.NewRequest(http.MethodDelete, ts.URL+"/jobs/"+tailJob.ID+"?purge="+q, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		switch q {
		case "banana":
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("purge=banana: %s, want 400", resp.Status)
			}
		case "0":
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("purge=0 (plain cancel): %s, want 200", resp.Status)
			}
		}
	}
	pollClient(t, client, tailJob.ID, func(s serve.Status) bool { return s.State == serve.StateCancelled }, "cancelled via purge=0")
	if n := jobFiles(t, dataDir, tailJob.ID); n == 0 {
		t.Fatal("purge=0 removed the job's files — it must only cancel")
	}

	// Client error classification for an unknown job.
	if rc, _, err := client.FollowResults(ctx, "j999999", 0); err == nil {
		rc.Close()
		t.Fatal("results of an unknown job succeeded")
	} else if !serve.IsNotFound(err) {
		t.Fatalf("unknown job results: %v", err)
	}
}

// A degenerate retention window (shorter than the sweeper can divide
// down) must not panic the sweeper's ticker — the interval is clamped
// — and must still sweep finished jobs.
func TestServeDegenerateRetentionWindow(t *testing.T) {
	srv, err := serve.New(serve.Config{
		DataDir:     t.TempDir(),
		PoolWorkers: 1,
		MaxActive:   1,
		QueueDepth:  4,
		Retain:      time.Nanosecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := serve.NewClient(ts.URL)
	ctx := context.Background()

	mani, _ := simManifest(t, 1, 9300)
	job, err := client.Submit(ctx, serve.JobSpec{ManifestPath: mani, MaxIter: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// The job finishes, ages out instantly, and the clamped sweeper
	// purges it shortly after.
	deadline := time.Now().Add(time.Minute)
	for {
		_, err := client.JobStatus(ctx, job.ID)
		if serve.IsNotFound(err) {
			return // swept
		}
		if err != nil {
			t.Fatal(err)
		}
		if time.Now().After(deadline) {
			t.Fatal("degenerate retention window never swept the finished job")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// A negative retention window is a configuration error, refused at
// startup rather than detonating in the sweeper.
func TestServeRejectsNegativeRetention(t *testing.T) {
	_, err := serve.New(serve.Config{DataDir: t.TempDir(), Retain: -time.Second})
	if err == nil || !strings.Contains(err.Error(), "negative retention") {
		t.Fatalf("negative Retain: %v, want a refused configuration", err)
	}
}
