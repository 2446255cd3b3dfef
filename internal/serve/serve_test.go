package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/align"
	"repro/internal/bsm"
	"repro/internal/codon"
	"repro/internal/core"
	"repro/internal/manifest"
	"repro/internal/serve"
	"repro/internal/sim"
)

// simManifest simulates n small genes under the seed offset and writes
// them as manifest files, returning the manifest path and entries.
func simManifest(t *testing.T, n int, seedOff int64) (string, []manifest.Entry) {
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
	maniPath := filepath.Join(dir, "genes.manifest")
	if err := manifest.WriteFile(maniPath, entries); err != nil {
		t.Fatal(err)
	}
	return maniPath, entries
}

// expectedJSONL runs the stream directly and renders the deterministic
// JSONL projection the job service checkpoints.
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

func postJob(t *testing.T, base string, spec serve.JobSpec) serve.Status {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		msg, _ := io.ReadAll(resp.Body)
		t.Fatalf("submit: %s: %s", resp.Status, msg)
	}
	var st serve.Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func getStatus(t *testing.T, base, id string) serve.Status {
	t.Helper()
	resp, err := http.Get(base + "/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st serve.Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// pollUntil polls the job until pred holds, failing at the deadline:
// the test binary's own -timeout less a tenth of the time left (so the
// failure names the job and its progress rather than ending in the
// timeout's goroutine dump), or three minutes when no timeout is set.
// A fixed deadline flaked under -race on loaded runners while the job
// was still progressing.
func pollUntil(t *testing.T, base, id string, pred func(serve.Status) bool, what string) serve.Status {
	t.Helper()
	deadline := time.Now().Add(3 * time.Minute)
	if d, ok := t.Deadline(); ok {
		deadline = d.Add(-time.Until(d) / 10)
	}
	for {
		st := getStatus(t, base, id)
		if pred(st) {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never reached %s: %+v", id, what, st)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func fetchResults(t *testing.T, base, id string) []byte {
	t.Helper()
	resp, err := http.Get(base + "/jobs/" + id + "/results")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("results: %s", resp.Status)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// The core service loop: two jobs submitted concurrently over a real
// listener — one by manifest path, one inline — run on the one shared
// pool, and each job's streamed results are byte-identical to a direct
// standalone run of its manifest.
func TestServeSubmitPollFetchConcurrent(t *testing.T) {
	srv, err := serve.New(serve.Config{
		DataDir:     t.TempDir(),
		PoolWorkers: 2,
		MaxActive:   2,
		QueueDepth:  8,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	maniA, entriesA := simManifest(t, 4, 1000)
	_, entriesB := simManifest(t, 3, 2000)
	var inline strings.Builder
	if err := manifest.Write(&inline, entriesB); err != nil {
		t.Fatal(err)
	}

	specA := serve.JobSpec{ManifestPath: maniA, MaxIter: 1, Seed: 1}
	specB := serve.JobSpec{Manifest: inline.String(), MaxIter: 1, Seed: 1, ShareFrequencies: true}
	// Submit both jobs concurrently; decode on the test goroutine.
	responses := make(chan *http.Response, 2)
	errs := make(chan error, 2)
	for _, spec := range []serve.JobSpec{specA, specB} {
		body, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		go func() {
			resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
			if err != nil {
				errs <- err
				return
			}
			responses <- resp
		}()
	}
	sub := map[string]serve.Status{}
	for i := 0; i < 2; i++ {
		var resp *http.Response
		select {
		case err := <-errs:
			t.Fatal(err)
		case resp = <-responses:
		}
		if resp.StatusCode != http.StatusAccepted {
			msg, _ := io.ReadAll(resp.Body)
			t.Fatalf("submit: %s: %s", resp.Status, msg)
		}
		var s serve.Status
		if err := json.NewDecoder(resp.Body).Decode(&s); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if s.State != serve.StateQueued && s.State != serve.StateRunning {
			t.Fatalf("fresh job in state %s", s.State)
		}
		sub[s.ID] = s
	}
	if len(sub) != 2 {
		t.Fatalf("expected 2 distinct job ids, got %v", sub)
	}

	// The 4-gene job was submitted with Total filled from the manifest.
	finished := map[string]serve.Status{}
	for id := range sub {
		st := pollUntil(t, ts.URL, id, func(s serve.Status) bool { return s.State == serve.StateDone }, "done")
		finished[id] = st
		if st.Done != st.Total || st.Failed != 0 {
			t.Fatalf("job %s finished with %d/%d done, %d failed", id, st.Done, st.Total, st.Failed)
		}
	}

	for id, st := range finished {
		var entries []manifest.Entry
		var spec serve.JobSpec
		switch st.Total {
		case 4:
			entries, spec = entriesA, specA
		case 3:
			entries, spec = entriesB, specB
		default:
			t.Fatalf("job %s has unexpected total %d", id, st.Total)
		}
		want := expectedJSONL(t, entries, core.StreamOptions{BatchOptions: core.BatchOptions{
			Options:          core.Options{Engine: core.EngineSlim, MaxIterations: spec.MaxIter, Seed: spec.Seed},
			ShareFrequencies: spec.ShareFrequencies,
		}})
		if got := fetchResults(t, ts.URL, id); !bytes.Equal(got, want) {
			t.Fatalf("job %s results diverge from a standalone run\ngot:  %q\nwant: %q", id, got, want)
		}
	}

	// List and health round out the API.
	resp, err := http.Get(ts.URL + "/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var list struct{ Jobs []serve.Status }
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(list.Jobs) != 2 {
		t.Fatalf("list has %d jobs, want 2", len(list.Jobs))
	}
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %s", resp.Status)
	}
}

// DELETE must stop a running job promptly — no new gene starts; the
// job lands in state cancelled with its checkpoint intact.
func TestServeCancelRunningJob(t *testing.T) {
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

	maniPath, _ := simManifest(t, 40, 3000)
	st := postJob(t, ts.URL, serve.JobSpec{ManifestPath: maniPath, MaxIter: 5, Seed: 1, Concurrency: 1})

	// Wait for real progress so the cancel hits a running job.
	pollUntil(t, ts.URL, st.ID, func(s serve.Status) bool { return s.Done >= 1 }, "first result")
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/jobs/"+st.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel: %s", resp.Status)
	}
	end := pollUntil(t, ts.URL, st.ID, func(s serve.Status) bool { return s.State == serve.StateCancelled }, "cancelled")
	if end.Done >= end.Total {
		t.Fatalf("cancelled job completed anyway: %d/%d", end.Done, end.Total)
	}

	// Cancelling a finished job is a conflict.
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("second cancel: %s, want 409", resp.Status)
	}
}

// A server restarted on the same data directory must recover an
// interrupted job from its checkpoint ledger and finish it with output
// byte-identical to an uninterrupted run.
func TestServeRestartResumesInterruptedJob(t *testing.T) {
	dataDir := t.TempDir()
	maniPath, entries := simManifest(t, 8, 4000)
	spec := serve.JobSpec{ManifestPath: maniPath, MaxIter: 1, Seed: 1, Concurrency: 1}

	srv1, err := serve.New(serve.Config{DataDir: dataDir, PoolWorkers: 1, MaxActive: 1, QueueDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(srv1.Handler())
	st := postJob(t, ts1.URL, spec)
	pollUntil(t, ts1.URL, st.ID, func(s serve.Status) bool { return s.Done >= 2 }, "progress")
	if err := srv1.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	ts1.Close()

	srv2, err := serve.New(serve.Config{DataDir: dataDir, PoolWorkers: 1, MaxActive: 1, QueueDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Shutdown(context.Background())
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()

	end := pollUntil(t, ts2.URL, st.ID, func(s serve.Status) bool { return s.State == serve.StateDone }, "done after restart")
	if end.Done != len(entries) || end.Failed != 0 {
		t.Fatalf("recovered job finished %d/%d (%d failed)", end.Done, end.Total, end.Failed)
	}
	want := expectedJSONL(t, entries, core.StreamOptions{BatchOptions: core.BatchOptions{
		Options: core.Options{Engine: core.EngineSlim, MaxIterations: spec.MaxIter, Seed: spec.Seed},
	}})
	if got := fetchResults(t, ts2.URL, st.ID); !bytes.Equal(got, want) {
		t.Fatalf("recovered job's results diverge\ngot:  %q\nwant: %q", got, want)
	}
}

// Intake limits: a full queue is a 503, a bad spec a 400, an unknown
// job a 404.
func TestServeIntakeErrors(t *testing.T) {
	srv, err := serve.New(serve.Config{DataDir: t.TempDir(), PoolWorkers: 1, MaxActive: 1, QueueDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	maniPath, _ := simManifest(t, 30, 5000)
	// Saturate: one job running, one queued, then overflow. The first
	// may be dequeued at any moment, so allow one retry.
	okSubmits := 0
	var overflow *http.Response
	for i := 0; i < 6 && overflow == nil; i++ {
		body, _ := json.Marshal(serve.JobSpec{ManifestPath: maniPath, MaxIter: 5, Seed: 1, Concurrency: 1})
		resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		switch resp.StatusCode {
		case http.StatusAccepted:
			okSubmits++
		case http.StatusServiceUnavailable:
			overflow = resp
		default:
			t.Fatalf("submit %d: %s", i, resp.Status)
		}
		resp.Body.Close()
	}
	if overflow == nil {
		t.Fatalf("queue never overflowed after %d accepted submissions", okSubmits)
	}

	resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(`{"manifest_path":"/nonexistent"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad spec: %s, want 400", resp.Status)
	}
	resp, err = http.Get(ts.URL + "/jobs/j999999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job: %s, want 404", resp.Status)
	}
}
