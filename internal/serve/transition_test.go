package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/obs"
)

// A job dispatched just as shutdown closes intake is interrupted through
// the same transition as the ones Shutdown's drain finds still queued:
// counted in slimcodemld_jobs_total, logged, and recorded in the index.
func TestRunJobAfterCloseCountsInterruption(t *testing.T) {
	var logBuf bytes.Buffer
	logger, err := obs.NewLogger(&logBuf, "json")
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{DataDir: t.TempDir(), PoolWorkers: 1, Log: logger})
	if err != nil {
		t.Fatal(err)
	}
	job := s.newJob("j000042", JobSpec{}, nil, core.StreamOptions{})
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.runJob(job)
	// Reopen intake so Shutdown below runs its full teardown.
	s.mu.Lock()
	s.closed = false
	s.mu.Unlock()
	defer s.Shutdown(context.Background())

	if st := job.Status(); st.State != StateInterrupted || st.Finished == nil {
		t.Errorf("job status = %+v, want interrupted with a finish time", st)
	}
	if n := s.met.jobEvents.With(eventInterrupted).Value(); n != 1 {
		t.Errorf(`slimcodemld_jobs_total{event="interrupted"} = %v, want 1`, n)
	}
	logged := false
	for _, line := range strings.Split(logBuf.String(), "\n") {
		var rec map[string]any
		if json.Unmarshal([]byte(line), &rec) != nil {
			continue
		}
		if rec["msg"] == msgInterrupted && rec["job"] == "j000042" {
			logged = true
		}
	}
	if !logged {
		t.Errorf("interruption not logged:\n%s", logBuf.String())
	}
	recs := s.idx.Records()
	if len(recs) != 1 || recs[0].ID != "j000042" || recs[0].State != StateInterrupted || recs[0].FinishedUnixNano == 0 {
		t.Errorf("index records = %+v, want j000042 interrupted with a finish time", recs)
	}
}

// Cancelling an id the server does not hold — say, one purged between
// the HTTP handler's lookup and the cancel — wraps ErrUnknownJob, which
// the handler answers with 404 rather than 409.
func TestCancelUnknownJob(t *testing.T) {
	s, err := New(Config{DataDir: t.TempDir(), PoolWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(context.Background())
	if err := s.Cancel("j999999"); !errors.Is(err, ErrUnknownJob) {
		t.Errorf("Cancel(unknown) = %v, want ErrUnknownJob", err)
	}
}

// A restart lists finished jobs straight from their index records
// through the same transition as every other state change — counted as
// recovered — without appending a single index line: the index already
// holds what the rebuilt job describes.
func TestRestartFromIndexAppendsNothing(t *testing.T) {
	dataDir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dataDir, "j000001.job.json"), []byte("{}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	idxPath := checkpoint.JobIndexPath(dataDir)
	idx, err := checkpoint.OpenJobIndex(idxPath, jobSeq)
	if err != nil {
		t.Fatal(err)
	}
	rec := checkpoint.JobIndexRecord{ID: "j000001", Tenant: "alice", State: StateDone, Total: 2, Done: 2, Failed: 1,
		Digest: "d1", SubmittedUnixNano: 1700000000000000001, FinishedUnixNano: 1700000000500000000}
	if err := idx.Put(rec); err != nil {
		t.Fatal(err)
	}
	if err := idx.Close(); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(idxPath)
	if err != nil {
		t.Fatal(err)
	}

	s, err := New(Config{DataDir: dataDir, PoolWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if n := s.met.jobEvents.With(eventRecovered).Value(); n != 1 {
		t.Errorf(`slimcodemld_jobs_total{event="recovered"} = %v, want 1`, n)
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	after, err := os.ReadFile(idxPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, before) {
		t.Errorf("restart rewrote the index:\n%s\nwant:\n%s", after, before)
	}
}

// A job index whose middle line is complete but does not parse is
// corrupt, not torn: opening it fails, so the daemon takes its
// rebuild-from-a-directory-scan path (logged, naming the line) instead
// of cutting the index at the bad line and silently dropping every
// later record.
func TestCorruptJobIndexRebuildsFromScan(t *testing.T) {
	dataDir := t.TempDir()
	idxPath := checkpoint.JobIndexPath(dataDir)
	idx, err := checkpoint.OpenJobIndex(idxPath, jobSeq)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"j000001", "j000002", "j000003"} {
		if err := idx.Put(checkpoint.JobIndexRecord{ID: id, State: StateDone, Total: 20, Done: 20}); err != nil {
			t.Fatal(err)
		}
	}
	if err := idx.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(idxPath)
	if err != nil {
		t.Fatal(err)
	}
	bad := bytes.Replace(data, []byte(`"j000002","state":"done","total":20`), []byte(`"j000002","state":"done","total":2X`), 1)
	if bytes.Equal(bad, data) {
		t.Fatalf("second record not found in:\n%s", data)
	}
	if err := os.WriteFile(idxPath, bad, 0o644); err != nil {
		t.Fatal(err)
	}

	var logBuf bytes.Buffer
	logger, err := obs.NewLogger(&logBuf, "json")
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{DataDir: dataDir, PoolWorkers: 1, Log: logger})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(context.Background())
	rebuilt := false
	for _, line := range strings.Split(logBuf.String(), "\n") {
		var rec map[string]any
		if json.Unmarshal([]byte(line), &rec) != nil {
			continue
		}
		if rec["msg"] == "job index unreadable; rebuilding from a directory scan" &&
			strings.Contains(fmt.Sprint(rec["error"]), "line 3") {
			rebuilt = true
		}
	}
	if !rebuilt {
		t.Fatalf("corrupt index not rebuilt from a directory scan:\n%s", logBuf.String())
	}
	// The scan finds no job files, so the rebuilt index holds no jobs.
	if recs := s.idx.Records(); len(recs) != 0 {
		t.Errorf("rebuilt index records = %+v, want none", recs)
	}
}
