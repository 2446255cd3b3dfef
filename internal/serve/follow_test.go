package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/serve"
)

// Follow mode's core contract: the bytes a follower receives over the
// life of a job are identical to a plain GET /results after the job
// finishes — streaming changes delivery, never content.
func TestFollowMatchesPolledResults(t *testing.T) {
	srv, err := serve.New(serve.Config{
		DataDir:     t.TempDir(),
		PoolWorkers: 1,
		MaxActive:   1,
		QueueDepth:  4,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	maniPath, _ := simManifest(t, 6, 8000)
	st := postJob(t, ts.URL, serve.JobSpec{ManifestPath: maniPath, MaxIter: 1, Seed: 1, Concurrency: 1})

	c := serve.NewClient(ts.URL)
	ctx := context.Background()
	rc, followed, err := c.FollowResults(ctx, st.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !followed {
		t.Fatal("daemon did not advertise follow capability")
	}
	streamed, err := io.ReadAll(rc) // ends when the job is terminal and drained
	rc.Close()
	if err != nil {
		t.Fatal(err)
	}

	end := getStatus(t, ts.URL, st.ID)
	if end.State != serve.StateDone {
		t.Fatalf("job ended %s, want done", end.State)
	}
	polled := fetchResults(t, ts.URL, st.ID)
	if !bytes.Equal(streamed, polled) {
		t.Fatalf("followed bytes diverge from polled results\nfollow: %q\npolled: %q", streamed, polled)
	}
	if len(streamed) == 0 || streamed[len(streamed)-1] != '\n' {
		t.Fatalf("followed stream does not end at a line boundary: %q", streamed)
	}
}

// Follow mode across a daemon restart: a stream cut by shutdown ends at
// a line boundary with every line a valid record (a clean prefix of the
// final results), and re-following with offset=<bytes received> after
// the restart delivers exactly the remainder.
func TestFollowCleanPrefixAcrossRestart(t *testing.T) {
	dataDir := t.TempDir()
	maniPath, _ := simManifest(t, 12, 8100)
	spec := serve.JobSpec{ManifestPath: maniPath, MaxIter: 1, Seed: 1, Concurrency: 1}

	srv1, err := serve.New(serve.Config{DataDir: dataDir, PoolWorkers: 1, MaxActive: 1, QueueDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(srv1.Handler())
	st := postJob(t, ts1.URL, spec)

	c1 := serve.NewClient(ts1.URL)
	ctx := context.Background()
	rc, followed, err := c1.FollowResults(ctx, st.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !followed {
		t.Fatal("daemon did not advertise follow capability")
	}
	// Drain the stream from a goroutine; it ends when shutdown cuts it.
	prefixCh := make(chan []byte, 1)
	go func() {
		data, _ := io.ReadAll(rc)
		rc.Close()
		prefixCh <- data
	}()

	// Let the job make real progress, then kill the daemon mid-stream.
	pollUntil(t, ts1.URL, st.ID, func(s serve.Status) bool { return s.Done >= 2 }, "progress")
	if err := srv1.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	var prefix []byte
	select {
	case prefix = <-prefixCh:
	case <-time.After(30 * time.Second):
		t.Fatal("follow stream did not end on daemon shutdown")
	}
	ts1.Close()

	// Clean prefix: ends on '\n', and every line is a complete JSON
	// record — shutdown never leaks a torn line.
	if len(prefix) == 0 || prefix[len(prefix)-1] != '\n' {
		t.Fatalf("interrupted stream did not end at a line boundary: %q", prefix)
	}
	for i, line := range bytes.Split(bytes.TrimSuffix(prefix, []byte("\n")), []byte("\n")) {
		var v map[string]any
		if err := json.Unmarshal(line, &v); err != nil {
			t.Fatalf("interrupted stream line %d is not a complete record: %q", i, line)
		}
	}

	// Restart on the same data directory; the job resumes and finishes.
	srv2, err := serve.New(serve.Config{DataDir: dataDir, PoolWorkers: 1, MaxActive: 1, QueueDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Shutdown(context.Background())
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()

	c2 := serve.NewClient(ts2.URL)
	rc2, followed, err := c2.FollowResults(ctx, st.ID, int64(len(prefix)))
	if err != nil {
		t.Fatal(err)
	}
	if !followed {
		t.Fatal("restarted daemon did not advertise follow capability")
	}
	rest, err := io.ReadAll(rc2)
	rc2.Close()
	if err != nil {
		t.Fatal(err)
	}

	polled := fetchResults(t, ts2.URL, st.ID)
	if got := append(append([]byte(nil), prefix...), rest...); !bytes.Equal(got, polled) {
		t.Fatalf("prefix(%d bytes) + resumed follow(%d bytes) != final results (%d bytes)",
			len(prefix), len(rest), len(polled))
	}
	if end := getStatus(t, ts2.URL, st.ID); end.State != serve.StateDone {
		t.Fatalf("job ended %s, want done", end.State)
	}
}

// Many followers on one job whose rows land quickly (replayed from the
// warm cache right after a queue wait) must each receive every byte —
// identical to GET /results — and see their stream end: the change
// signal may never lose a wake-up.
func TestFollowManyConcurrentFollowers(t *testing.T) {
	srv, err := serve.New(serve.Config{
		DataDir:     t.TempDir(),
		PoolWorkers: 1,
		MaxActive:   1,
		QueueDepth:  8,
		CacheDir:    t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	maniPath, _ := simManifest(t, 6, 8200)
	spec := serve.JobSpec{ManifestPath: maniPath, MaxIter: 1, Seed: 1, Concurrency: 1}
	fill := postJob(t, ts.URL, spec)
	pollUntil(t, ts.URL, fill.ID, func(s serve.Status) bool { return s.State == serve.StateDone }, "done")

	// A cold job ahead in the queue holds the replayed job back, so the
	// followers attach while it is still queued.
	blockerPath, _ := simManifest(t, 1, 8300)
	postJob(t, ts.URL, serve.JobSpec{ManifestPath: blockerPath, MaxIter: 1, Seed: 1, Concurrency: 1})
	st := postJob(t, ts.URL, spec)

	const followers = 16
	c := serve.NewClient(ts.URL)
	got := make(chan []byte, followers)
	errs := make(chan error, followers)
	for i := 0; i < followers; i++ {
		go func() {
			rc, _, err := c.FollowResults(context.Background(), st.ID, 0)
			if err != nil {
				errs <- err
				return
			}
			defer rc.Close()
			data, err := io.ReadAll(rc)
			if err != nil {
				errs <- err
				return
			}
			got <- data
		}()
	}
	var streams [][]byte
	timeout := time.After(time.Minute)
	for len(streams) < followers {
		select {
		case data := <-got:
			streams = append(streams, data)
		case err := <-errs:
			t.Fatal(err)
		case <-timeout:
			t.Fatalf("only %d of %d follow streams ended", len(streams), followers)
		}
	}
	if end := getStatus(t, ts.URL, st.ID); end.State != serve.StateDone {
		t.Fatalf("job ended %s, want done", end.State)
	}
	want := fetchResults(t, ts.URL, st.ID)
	for i, data := range streams {
		if !bytes.Equal(data, want) {
			t.Fatalf("follower %d received %d bytes, want the %d bytes of GET /results", i, len(data), len(want))
		}
	}
}

// A follower of a queued job ends promptly when the job is cancelled:
// the cancel fires the job's change signal.
func TestFollowQueuedJobEndsOnCancel(t *testing.T) {
	srv, err := serve.New(serve.Config{DataDir: t.TempDir(), PoolWorkers: 1, MaxActive: 1, QueueDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// A long job occupies the only run slot, so the next one stays queued.
	blockerPath, _ := simManifest(t, 8, 8400)
	blocker := postJob(t, ts.URL, serve.JobSpec{ManifestPath: blockerPath, MaxIter: 5, Seed: 1, Concurrency: 1})
	maniPath, _ := simManifest(t, 2, 8500)
	st := postJob(t, ts.URL, serve.JobSpec{ManifestPath: maniPath, MaxIter: 1, Seed: 1, Concurrency: 1})

	c := serve.NewClient(ts.URL)
	rc, _, err := c.FollowResults(context.Background(), st.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	ended := make(chan []byte, 1)
	go func() {
		data, _ := io.ReadAll(rc)
		ended <- data
	}()
	if s := getStatus(t, ts.URL, st.ID); s.State != serve.StateQueued {
		t.Fatalf("job is %s, want queued behind the long job", s.State)
	}
	if _, err := c.Cancel(context.Background(), st.ID); err != nil {
		t.Fatal(err)
	}
	select {
	case data := <-ended:
		if len(data) != 0 {
			t.Fatalf("cancelled queued job streamed %q, want nothing", data)
		}
	case <-time.After(time.Second):
		t.Fatal("follow stream of a cancelled queued job did not end within 1 s")
	}
	c.Cancel(context.Background(), blocker.ID)
}

// The plain and the follow results fetch share one complete-line
// reader. On a results file larger than its 64 KiB read buffer, with a
// record straddling a read boundary and a torn final line, both hand out
// the same bytes: every complete record and nothing of the torn line.
func TestResultsReaderCompleteLinesOnly(t *testing.T) {
	srv, err := serve.New(serve.Config{DataDir: t.TempDir(), PoolWorkers: 1, MaxActive: 1, QueueDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	maniPath, _ := simManifest(t, 1, 8600)
	st := postJob(t, ts.URL, serve.JobSpec{ManifestPath: maniPath, MaxIter: 1, Seed: 1, Concurrency: 1})
	pollUntil(t, ts.URL, st.ID, func(s serve.Status) bool { return s.State == serve.StateDone }, "done")
	job, ok := srv.Job(st.ID)
	if !ok {
		t.Fatalf("no job %s", st.ID)
	}

	// Replace the finished job's results with a large file of our own.
	const readBuf = 64 << 10
	var want bytes.Buffer
	for i := 0; want.Len() < 3*readBuf; i++ {
		fmt.Fprintf(&want, "{\"name\":\"g%06d\",\"pad\":%q}\n", i, strings.Repeat("x", 90))
	}
	if want.Bytes()[readBuf-1] == '\n' {
		t.Fatal("setup: a record ends exactly at the read boundary; change the padding")
	}
	torn := append(append([]byte(nil), want.Bytes()...), `{"name":"torn","pad":"xx`...)
	if err := os.WriteFile(job.ResultsPath(), torn, 0o644); err != nil {
		t.Fatal(err)
	}

	plain := fetchResults(t, ts.URL, st.ID)
	rc, followed, err := serve.NewClient(ts.URL).FollowResults(context.Background(), st.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !followed {
		t.Fatal("daemon did not advertise follow capability")
	}
	streamed, err := io.ReadAll(rc) // the job is done: one pass, then the stream ends
	rc.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(plain, streamed) {
		t.Fatalf("plain fetch (%d bytes) and follow (%d bytes) diverge", len(plain), len(streamed))
	}
	if !bytes.Equal(plain, want.Bytes()) {
		t.Fatalf("fetched %d bytes, want the %d bytes of complete records (torn tail dropped)", len(plain), want.Len())
	}
}
