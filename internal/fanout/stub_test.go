package fanout_test

// Stub-daemon tests: a minimal in-memory implementation of the serve
// HTTP API with scripted job states, so the coordinator's ordering and
// retry logic can be driven deterministically — shard completion order,
// 503 overflow routing, dead-endpoint exclusion — without fitting a
// single gene.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/fanout"
	"repro/internal/manifest"
	"repro/internal/obs"
	"repro/internal/serve"
)

// stubJob is one accepted job: the gene names of its shard and the
// manifest digest its status reports, as a real daemon's does.
type stubJob struct {
	id     string
	genes  []string
	digest string
}

// stubDaemon speaks just enough of the serve wire protocol for the
// coordinator. ready decides when a job reports done; reject503 makes
// every submission answer 503 (a perpetually full queue); failJobs
// makes every job report failed (a deterministic job-level failure);
// statusDelay stalls each status answer (a slow call to cancel into).
type stubDaemon struct {
	mu          sync.Mutex
	nextID      int
	jobs        map[string]*stubJob
	submits     int
	statusCalls int
	fetched     []string // job ids whose results were downloaded, in order
	ready       func(d *stubDaemon, id string) bool
	reject503   bool
	failJobs    bool
	// noFollow reverts the results endpoint to pre-follow behavior — no
	// capability header, an immediate bounded body even for ?follow=1 —
	// impersonating an old daemon.
	noFollow bool
	// cutFollow ends every follow stream of a job that is not ready at
	// once, empty — a stream cut while the job runs on.
	cutFollow bool
	// pendingState is what a job that is not ready reports (default
	// running).
	pendingState string
	// failFirst makes exactly one status poll (the first to arrive)
	// report failed, then clears itself — a deterministic single
	// job-level failure for exercising the resubmission path.
	failFirst   bool
	statusDelay time.Duration
	// shortRows drops that many rows from the end of every results
	// body — a daemon reporting done with a short results file.
	shortRows int
	// plainFetches counts results requests without follow=1.
	plainFetches int
}

func newStubDaemon() *stubDaemon {
	return &stubDaemon{
		jobs:  make(map[string]*stubJob),
		ready: func(*stubDaemon, string) bool { return true },
	}
}

func (d *stubDaemon) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", func(w http.ResponseWriter, r *http.Request) {
		d.mu.Lock()
		defer d.mu.Unlock()
		d.submits++
		if d.reject503 {
			w.WriteHeader(http.StatusServiceUnavailable)
			json.NewEncoder(w).Encode(map[string]string{"error": "queue full"})
			return
		}
		var spec serve.JobSpec
		if err := json.NewDecoder(r.Body).Decode(&spec); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		entries, err := manifest.Parse(strings.NewReader(spec.Manifest), "")
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		d.nextID++
		job := &stubJob{id: fmt.Sprintf("s%03d", d.nextID), digest: manifest.Digest(entries)}
		for _, e := range entries {
			job.genes = append(job.genes, e.Name)
		}
		d.jobs[job.id] = job
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(serve.Status{ID: job.id, State: serve.StateQueued, Total: len(job.genes)})
	})
	mux.HandleFunc("GET /jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		if d.statusDelay > 0 {
			time.Sleep(d.statusDelay)
		}
		d.mu.Lock()
		defer d.mu.Unlock()
		d.statusCalls++
		job, ok := d.jobs[r.PathValue("id")]
		if !ok {
			w.WriteHeader(http.StatusNotFound)
			json.NewEncoder(w).Encode(map[string]string{"error": "no job"})
			return
		}
		state := serve.StateRunning
		if d.pendingState != "" {
			state = d.pendingState
		}
		switch {
		case d.failJobs:
			state = serve.StateFailed
		case d.failFirst:
			d.failFirst = false
			state = serve.StateFailed
		case d.ready(d, job.id):
			state = serve.StateDone
		}
		json.NewEncoder(w).Encode(serve.Status{ID: job.id, State: state, Total: len(job.genes), Done: len(job.genes), Error: "stub failure", ManifestDigest: job.digest})
	})
	mux.HandleFunc("GET /jobs/{id}/results", func(w http.ResponseWriter, r *http.Request) {
		d.mu.Lock()
		job, ok := d.jobs[r.PathValue("id")]
		if !ok {
			d.mu.Unlock()
			w.WriteHeader(http.StatusNotFound)
			return
		}
		d.fetched = append(d.fetched, job.id)
		if r.URL.Query().Get("follow") != "1" {
			d.plainFetches++
		}
		follow := !d.noFollow && r.URL.Query().Get("follow") != ""
		genes := append([]string(nil), job.genes[:len(job.genes)-d.shortRows]...)
		id := job.id
		d.mu.Unlock()
		var buf bytes.Buffer
		for _, g := range genes {
			fmt.Fprintf(&buf, "{\"name\":%q}\n", g)
		}
		if !follow {
			w.Write(buf.Bytes())
			return
		}
		// Follow mode, stub style: advertise the capability, hold the
		// stream open until the scripted job is "done", then deliver all
		// rows at once and end the stream (the real daemon trickles rows;
		// the coordinator only sees bytes-then-EOF either way).
		w.Header().Set("X-Slimcodemld-Follow", "1")
		w.WriteHeader(http.StatusOK)
		w.(http.Flusher).Flush()
		for {
			d.mu.Lock()
			ready := d.failJobs || d.ready(d, id)
			cut := d.cutFollow
			d.mu.Unlock()
			if ready {
				break
			}
			if cut {
				return
			}
			select {
			case <-r.Context().Done():
				return
			case <-time.After(2 * time.Millisecond):
			}
		}
		w.Write(buf.Bytes())
	})
	mux.HandleFunc("DELETE /jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		d.mu.Lock()
		defer d.mu.Unlock()
		delete(d.jobs, r.PathValue("id"))
		json.NewEncoder(w).Encode(map[string]string{"purged": r.PathValue("id")})
	})
	return mux
}

// stubEntries fabricates manifest rows pointing at real (empty) files
// so the coordinator's absolute-path resolution works.
func stubEntries(t *testing.T, n int) []manifest.Entry {
	t.Helper()
	dir := t.TempDir()
	entries := make([]manifest.Entry, n)
	for i := range entries {
		name := fmt.Sprintf("g%02d", i)
		a := filepath.Join(dir, name+".fasta")
		tr := filepath.Join(dir, name+".nwk")
		for _, p := range []string{a, tr} {
			if err := os.WriteFile(p, []byte("x\n"), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		entries[i] = manifest.Entry{Name: name, AlignPath: a, TreePath: tr}
	}
	return entries
}

// mergedNames parses the merged output back into its gene-name rows.
func mergedNames(t *testing.T, path string) []string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		var row struct {
			Name string `json:"name"`
		}
		if err := json.Unmarshal([]byte(line), &row); err != nil {
			t.Fatalf("bad merged row %q: %v", line, err)
		}
		names = append(names, row.Name)
	}
	return names
}

// Shard 2 finishes long before shard 0, but the merged output must
// still be in shard order — and each shard's results cross the wire
// exactly once, via its follow stream.
func TestFanoutOutOfOrderCompletion(t *testing.T) {
	entries := stubEntries(t, 9)

	// Three stubs, one per shard. Shard 0's job completes only after
	// shard 2's job has reported done at least once, forcing the
	// fast-shard-finishes-first schedule deterministically.
	var mu sync.Mutex
	shard2Done := false
	stubs := make([]*stubDaemon, 3)
	for i := range stubs {
		stubs[i] = newStubDaemon()
	}
	stubs[0].ready = func(*stubDaemon, string) bool {
		mu.Lock()
		defer mu.Unlock()
		return shard2Done
	}
	stubs[2].ready = func(*stubDaemon, string) bool {
		mu.Lock()
		defer mu.Unlock()
		shard2Done = true
		return true
	}

	var eps []string
	for _, s := range stubs {
		ts := httptest.NewServer(s.handler())
		defer ts.Close()
		eps = append(eps, ts.URL)
	}
	outPath := filepath.Join(t.TempDir(), "merged.jsonl")
	if _, err := fanout.Run(context.Background(), fanout.Config{
		Entries:   entries,
		Endpoints: eps,
		Shards:    3, // one shard per stub so the completion gating is exact
		OutPath:   outPath,
		Spec:      serve.JobSpec{MaxIter: 1, Seed: 1},
	}); err != nil {
		t.Fatal(err)
	}

	// Merged rows are the manifest's rows, in manifest order, despite
	// completion order 2 → 1 → 0.
	names := mergedNames(t, outPath)
	if len(names) != len(entries) {
		t.Fatalf("merged %d rows, want %d", len(names), len(entries))
	}
	for i, e := range entries {
		if names[i] != e.Name {
			t.Fatalf("merged row %d is %s, want %s (shard-order merge broken)", i, names[i], e.Name)
		}
	}
	// Every shard's results were fetched exactly once: the follow stream
	// opened at submission delivers the rows, and the spooled copy is
	// never refetched when the shard's turn in the merge order comes.
	for i, s := range stubs {
		s.mu.Lock()
		fetched := len(s.fetched)
		s.mu.Unlock()
		if fetched != 1 {
			t.Fatalf("shard %d's results fetched %d times, want exactly 1", i, fetched)
		}
	}
}

// followCount reads one slimcodemlx_follow_streams_total sample out of
// the coordinator registry's exposition text.
func followCount(t *testing.T, reg *obs.Registry, event string) float64 {
	t.Helper()
	var buf bytes.Buffer
	if err := reg.WriteExposition(&buf); err != nil {
		t.Fatal(err)
	}
	prefix := fmt.Sprintf("slimcodemlx_follow_streams_total{event=%q} ", event)
	for _, line := range strings.Split(buf.String(), "\n") {
		if strings.HasPrefix(line, prefix) {
			var v float64
			if _, err := fmt.Sscanf(strings.TrimPrefix(line, prefix), "%g", &v); err != nil {
				t.Fatalf("bad sample line %q: %v", line, err)
			}
			return v
		}
	}
	return 0
}

// Against a follow-capable daemon the coordinator streams instead of
// polling: one results fetch and exactly one status round trip (the
// end-of-stream classification) per job.
func TestFanoutFollowReplacesPolling(t *testing.T) {
	stub := newStubDaemon()
	ts := httptest.NewServer(stub.handler())
	defer ts.Close()

	reg := obs.NewRegistry()
	outPath := filepath.Join(t.TempDir(), "merged.jsonl")
	entries := stubEntries(t, 6)
	if _, err := fanout.Run(context.Background(), fanout.Config{
		Entries:   entries,
		Endpoints: []string{ts.URL},
		Shards:    2,
		OutPath:   outPath,
		Spec:      serve.JobSpec{MaxIter: 1, Seed: 1},
		Metrics:   reg,
	}); err != nil {
		t.Fatal(err)
	}
	for i, e := range entries {
		if names := mergedNames(t, outPath); names[i] != e.Name {
			t.Fatalf("merged row %d is %s, want %s", i, names[i], e.Name)
		}
	}
	stub.mu.Lock()
	fetched, statusCalls, jobs := len(stub.fetched), stub.statusCalls, len(stub.jobs)
	stub.mu.Unlock()
	if jobs != 2 {
		t.Fatalf("daemon ran %d jobs, want 2", jobs)
	}
	if fetched != jobs {
		t.Fatalf("%d results fetches for %d jobs, want one each (the follow stream)", fetched, jobs)
	}
	if statusCalls != jobs {
		t.Fatalf("%d status calls for %d jobs, want exactly one each (stream-end classification, no polling)", statusCalls, jobs)
	}
	if got := followCount(t, reg, "started"); got != float64(jobs) {
		t.Fatalf("follow_streams_total{event=started} = %g, want %d", got, jobs)
	}
}

// A resumed coordinator whose shard ledger names a job the daemon has
// since finished adopts it: the finished job's rows arrive through a
// follow stream like a running job's — no resubmission, and no results
// request without follow=1.
func TestFanoutAdoptsFinishedJob(t *testing.T) {
	entries := stubEntries(t, 4)
	stub := newStubDaemon()
	finished := false // read under stub.mu, like every ready call
	stub.ready = func(*stubDaemon, string) bool { return finished }
	ts := httptest.NewServer(stub.handler())
	defer ts.Close()

	// One endpoint with one slot: the first run submits shard 0 only and
	// is interrupted at once, leaving the submission in the ledger.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := fanout.Config{
		Entries:     entries,
		Endpoints:   []string{ts.URL},
		Shards:      2,
		OutPath:     filepath.Join(t.TempDir(), "merged.jsonl"),
		Spec:        serve.JobSpec{MaxIter: 1, Seed: 1},
		OnSubmitted: func(int, string, string) { cancel() },
	}
	if _, err := fanout.Run(ctx, cfg); !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run: %v, want an error wrapping context.Canceled", err)
	}

	// The daemon finishes the recorded job while no coordinator runs.
	stub.mu.Lock()
	finished = true
	stub.mu.Unlock()
	cfg.OnSubmitted = nil
	sum, err := fanout.Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Adopted != 1 {
		t.Fatalf("summary %+v: want exactly 1 adopted shard", sum)
	}
	names := mergedNames(t, cfg.OutPath)
	if len(names) != len(entries) {
		t.Fatalf("merged %d rows, want %d", len(names), len(entries))
	}
	for i, e := range entries {
		if names[i] != e.Name {
			t.Fatalf("merged row %d is %s, want %s", i, names[i], e.Name)
		}
	}
	stub.mu.Lock()
	defer stub.mu.Unlock()
	if stub.submits != 2 {
		t.Fatalf("%d submissions over both runs, want 2 (the adopted shard is not resubmitted)", stub.submits)
	}
	if stub.plainFetches != 0 {
		t.Fatalf("%d results requests without follow=1, want none", stub.plainFetches)
	}
}

// A daemon that reports done while the stream carried fewer rows than
// the shard holds gets exactly one immediate re-follow; when that
// stream is short too, the run fails with the row-count error instead
// of merging a short shard.
func TestFanoutShortDoneJobFailsAfterOneRefollow(t *testing.T) {
	stub := newStubDaemon()
	stub.shortRows = 1
	ts := httptest.NewServer(stub.handler())
	defer ts.Close()

	_, err := fanout.Run(context.Background(), fanout.Config{
		Entries:   stubEntries(t, 3),
		Endpoints: []string{ts.URL},
		Shards:    1,
		OutPath:   filepath.Join(t.TempDir(), "merged.jsonl"),
		Spec:      serve.JobSpec{MaxIter: 1, Seed: 1},
	})
	if err == nil || !strings.Contains(err.Error(), "returned 2 rows for a 3-gene shard") {
		t.Fatalf("run against a short done job: %v, want the row-count error", err)
	}
	stub.mu.Lock()
	defer stub.mu.Unlock()
	if stub.submits != 1 {
		t.Fatalf("%d submissions, want 1: a short done job is re-followed, not resubmitted", stub.submits)
	}
	if len(stub.fetched) != 2 {
		t.Fatalf("%d follow streams, want exactly 2 (the stream and one re-follow)", len(stub.fetched))
	}
	if stub.plainFetches != 0 {
		t.Fatalf("%d results requests without follow=1, want none", stub.plainFetches)
	}
}

// A daemon that ignores ?follow=1 (no capability header) is too old
// for the coordinator: the run fails at once, naming the endpoint and
// asking for an upgrade, instead of polling or resubmitting.
func TestFanoutRefusesDaemonWithoutFollow(t *testing.T) {
	stub := newStubDaemon()
	stub.noFollow = true
	ts := httptest.NewServer(stub.handler())
	defer ts.Close()

	_, err := fanout.Run(context.Background(), fanout.Config{
		Entries:   stubEntries(t, 4),
		Endpoints: []string{ts.URL},
		Shards:    2,
		OutPath:   filepath.Join(t.TempDir(), "merged.jsonl"),
		Spec:      serve.JobSpec{MaxIter: 1, Seed: 1},
	})
	if err == nil || !strings.Contains(err.Error(), "upgrade the daemon") || !strings.Contains(err.Error(), ts.URL) {
		t.Fatalf("run against a daemon without follow support: %v, want an upgrade-the-daemon error naming %s", err, ts.URL)
	}
	stub.mu.Lock()
	defer stub.mu.Unlock()
	if stub.submits != 1 {
		t.Fatalf("%d submissions, want exactly 1 (no resubmission to an old daemon)", stub.submits)
	}
}

// A follow stream that ends while its job is still running (or
// interrupted, waiting for its daemon to restart) is re-followed — but
// at most once per retry delay (500 ms), never in a hot loop.
func TestFanoutRefollowIsPaced(t *testing.T) {
	for _, state := range []string{serve.StateRunning, serve.StateInterrupted} {
		t.Run(state, func(t *testing.T) {
			stub := newStubDaemon()
			stub.ready = func(*stubDaemon, string) bool { return false }
			stub.cutFollow = true
			stub.pendingState = state
			ts := httptest.NewServer(stub.handler())
			defer ts.Close()

			const window = 2 * time.Second
			ctx, cancel := context.WithTimeout(context.Background(), window)
			defer cancel()
			_, err := fanout.Run(ctx, fanout.Config{
				Entries:   stubEntries(t, 2),
				Endpoints: []string{ts.URL},
				Shards:    1,
				OutPath:   filepath.Join(t.TempDir(), "merged.jsonl"),
				Spec:      serve.JobSpec{MaxIter: 1, Seed: 1},
			})
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("run against a job that never finishes: %v, want the deadline", err)
			}
			stub.mu.Lock()
			follows, submits, statusCalls := len(stub.fetched), stub.submits, stub.statusCalls
			stub.mu.Unlock()
			if submits != 1 {
				t.Fatalf("%d submissions, want 1: an unfinished job is re-followed, not resubmitted", submits)
			}
			if statusCalls > follows {
				t.Fatalf("%d status calls for %d follow streams, want at most one per stream end", statusCalls, follows)
			}
			// One follow at submission plus at most one per 500 ms after.
			if follows < 2 || follows > 1+int(window/(500*time.Millisecond)) {
				t.Fatalf("%d follow requests in %s, want 2..%d", follows, window, 1+int(window/(500*time.Millisecond)))
			}
		})
	}
}

// A daemon that always answers 503 and a daemon that refuses
// connections must both be routed around: every shard lands on the one
// working daemon and the merge still completes in shard order.
func TestFanoutRoutesAround503AndConnRefused(t *testing.T) {
	entries := stubEntries(t, 6)

	full := newStubDaemon()
	full.reject503 = true
	tsFull := httptest.NewServer(full.handler())
	defer tsFull.Close()

	// A connection-refused endpoint: grab a free port and close it.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadURL := "http://" + l.Addr().String()
	l.Close()

	ok := newStubDaemon()
	tsOK := httptest.NewServer(ok.handler())
	defer tsOK.Close()

	outPath := filepath.Join(t.TempDir(), "merged.jsonl")
	sum, err := fanout.Run(context.Background(), fanout.Config{
		Entries:   entries,
		Endpoints: []string{tsFull.URL, deadURL, tsOK.URL},
		Shards:    3,
		OutPath:   outPath,
		Spec:      serve.JobSpec{MaxIter: 1, Seed: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Shards != 3 {
		t.Fatalf("got %d shards, want 3", sum.Shards)
	}
	// All three shards executed on the one working daemon.
	ok.mu.Lock()
	executed := len(ok.jobs)
	ok.mu.Unlock()
	if executed != 3 {
		t.Fatalf("working daemon ran %d jobs, want 3", executed)
	}
	full.mu.Lock()
	attempts := full.submits
	full.mu.Unlock()
	if attempts == 0 {
		t.Fatal("the 503 daemon was never even tried")
	}
	names := mergedNames(t, outPath)
	for i, e := range entries {
		if names[i] != e.Name {
			t.Fatalf("merged row %d is %s, want %s", i, names[i], e.Name)
		}
	}
}

// recordingHandler is a slog.Handler that keeps every event's message,
// for tests that assert on what the coordinator logged.
type recordingHandler struct {
	mu   sync.Mutex
	msgs []string
}

func (h *recordingHandler) Enabled(context.Context, slog.Level) bool { return true }
func (h *recordingHandler) WithAttrs([]slog.Attr) slog.Handler       { return h }
func (h *recordingHandler) WithGroup(string) slog.Handler            { return h }
func (h *recordingHandler) Handle(_ context.Context, r slog.Record) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.msgs = append(h.msgs, r.Message)
	return nil
}

// Cancellation is not endpoint death: interrupting the coordinator
// while a status call is in flight must exit cleanly with the resume
// instruction wrapping context.Canceled — not mark the daemon dead,
// not burn a resubmission.
func TestFanoutCancellationIsNotEndpointDeath(t *testing.T) {
	entries := stubEntries(t, 2)
	stub := newStubDaemon()
	stub.ready = func(*stubDaemon, string) bool { return false } // never finishes
	stub.cutFollow = true                                        // so the stream's end triggers a status call
	stub.statusDelay = 300 * time.Millisecond
	ts := httptest.NewServer(stub.handler())
	defer ts.Close()

	events := &recordingHandler{}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, err := fanout.Run(ctx, fanout.Config{
		Entries:   entries,
		Endpoints: []string{ts.URL},
		Shards:    1,
		OutPath:   filepath.Join(t.TempDir(), "merged.jsonl"),
		Spec:      serve.JobSpec{MaxIter: 1, Seed: 1},
		Log:       slog.New(events),
		OnSubmitted: func(shard int, endpoint, jobID string) {
			// Cancel while the first (stalled) status call is in flight.
			time.AfterFunc(50*time.Millisecond, cancel)
		},
	})
	if err == nil {
		t.Fatal("cancelled run reported success")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run returned %v, want an error wrapping context.Canceled", err)
	}
	if !strings.Contains(err.Error(), "resume") {
		t.Fatalf("cancellation error %q carries no resume instruction", err)
	}
	stub.mu.Lock()
	submits := stub.submits
	stub.mu.Unlock()
	if submits != 1 {
		t.Fatalf("cancelled run submitted %d times, want exactly 1 (no resubmission)", submits)
	}
	events.mu.Lock()
	defer events.mu.Unlock()
	for _, msg := range events.msgs {
		if strings.Contains(msg, "excluded") || strings.Contains(msg, "resubmission") {
			t.Fatalf("cancellation was misclassified as endpoint failure: %q", msg)
		}
	}
}

// MaxResubmits 0 means exactly zero resubmissions: the first lost
// shard fails the run after a single submission. The default budget
// (negative MaxResubmits) still retries three times — four
// submissions total.
func TestFanoutZeroResubmitsFailsFast(t *testing.T) {
	run := func(maxResubmits int) (submits int, err error) {
		stub := newStubDaemon()
		stub.failJobs = true
		ts := httptest.NewServer(stub.handler())
		defer ts.Close()
		_, err = fanout.Run(context.Background(), fanout.Config{
			Entries:      stubEntries(t, 2),
			Endpoints:    []string{ts.URL},
			Shards:       1,
			OutPath:      filepath.Join(t.TempDir(), "merged.jsonl"),
			Spec:         serve.JobSpec{MaxIter: 1, Seed: 1},
			MaxResubmits: maxResubmits,
		})
		stub.mu.Lock()
		defer stub.mu.Unlock()
		return stub.submits, err
	}

	submits, err := run(0)
	if err == nil || !strings.Contains(err.Error(), "shard 0 failed") {
		t.Fatalf("zero-budget run: %v, want a shard-failure error", err)
	}
	if submits != 1 {
		t.Fatalf("zero-budget run submitted %d times, want exactly 1", submits)
	}

	submits, err = run(-1)
	if err == nil {
		t.Fatal("deterministically failing job reported success")
	}
	if submits != 4 {
		t.Fatalf("default budget submitted %d times, want 4 (initial + 3 resubmissions)", submits)
	}
}

// An endpoint that is down when the run starts — the whole fleet, even
// — is not fatal while re-probing is on: the coordinator waits, the
// re-probe re-admits the endpoint once it comes up, and the run
// completes.
func TestFanoutReprobeReadmitsColdEndpoint(t *testing.T) {
	entries := stubEntries(t, 3)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close() // the endpoint starts out refusing connections

	stub := newStubDaemon()
	serverUp := make(chan *httptest.Server, 1)
	time.AfterFunc(150*time.Millisecond, func() {
		l2, err := net.Listen("tcp", addr)
		if err != nil {
			serverUp <- nil
			return
		}
		ts := httptest.NewUnstartedServer(stub.handler())
		ts.Listener.Close()
		ts.Listener = l2
		ts.Start()
		serverUp <- ts
	})

	outPath := filepath.Join(t.TempDir(), "merged.jsonl")
	sum, err := fanout.Run(context.Background(), fanout.Config{
		Entries:    entries,
		Endpoints:  []string{"http://" + addr},
		Shards:     1,
		OutPath:    outPath,
		Spec:       serve.JobSpec{MaxIter: 1, Seed: 1},
		Reprobe:    20 * time.Millisecond,
		ReprobeMax: 500 * time.Millisecond,
	})
	if ts := <-serverUp; ts != nil {
		defer ts.Close()
	} else {
		t.Fatalf("could not rebind %s for the late daemon", addr)
	}
	if err != nil {
		t.Fatal(err)
	}
	if sum.Readmissions < 1 {
		t.Fatalf("summary %+v: the late endpoint was never re-admitted", sum)
	}
	if names := mergedNames(t, outPath); len(names) != len(entries) {
		t.Fatalf("merged %d rows, want %d", len(names), len(entries))
	}
}

// With re-probing disabled (negative Reprobe), a fully dead fleet
// fails immediately instead of waiting out a grace period.
func TestFanoutReprobeDisabledFailsFast(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadURL := "http://" + l.Addr().String()
	l.Close()

	_, err = fanout.Run(context.Background(), fanout.Config{
		Entries:   stubEntries(t, 1),
		Endpoints: []string{deadURL},
		Shards:    1,
		OutPath:   filepath.Join(t.TempDir(), "merged.jsonl"),
		Spec:      serve.JobSpec{MaxIter: 1, Seed: 1},
		Reprobe:   -1,
	})
	if err == nil || !strings.Contains(err.Error(), "all 1 endpoints are dead") {
		t.Fatalf("dead fleet with re-probing disabled: %v, want an all-endpoints-dead error", err)
	}
}
