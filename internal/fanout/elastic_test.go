package fanout_test

// Elastic-tier e2e tests over real loopback daemons: a daemon that
// dies mid-run drains its shards to the survivors, is re-admitted by a
// re-probe once it restarts, and picks up queued work again — and a
// -sharefreq fan-out matches the standalone shared-frequency run byte
// for byte, across a coordinator kill-and-resume.

import (
	"bytes"
	"context"
	"net"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/fanout"
	"repro/internal/serve"
)

// restartable is a daemon bound to a fixed loopback address, so a
// killed incarnation can be replaced by a fresh one at the same URL —
// the way a crashed host rejoins a real fleet.
type restartable struct {
	t    *testing.T
	addr string
	srv  *serve.Server
	ts   *httptest.Server
	down bool
}

func startRestartable(t *testing.T) *restartable {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	r := &restartable{t: t, addr: l.Addr().String()}
	r.bind(l)
	t.Cleanup(func() {
		if !r.down {
			r.kill()
		}
	})
	return r
}

func (r *restartable) url() string { return "http://" + r.addr }

func (r *restartable) bind(l net.Listener) {
	srv, err := serve.New(serve.Config{
		DataDir:     r.t.TempDir(),
		PoolWorkers: 1,
		MaxActive:   1,
		QueueDepth:  16,
	})
	if err != nil {
		r.t.Fatal(err)
	}
	ts := httptest.NewUnstartedServer(srv.Handler())
	ts.Listener.Close()
	ts.Listener = l
	ts.Start()
	r.srv, r.ts, r.down = srv, ts, false
}

func (r *restartable) kill() {
	r.ts.CloseClientConnections()
	r.ts.Close()
	r.srv.Shutdown(context.Background())
	r.down = true
}

// restart brings a fresh daemon up on the same address (the data
// directory is new: per-daemon checkpoints do not survive a crash of
// the whole host, and the coordinator must not need them to).
func (r *restartable) restart() {
	var l net.Listener
	var err error
	for i := 0; i < 200; i++ {
		if l, err = net.Listen("tcp", r.addr); err == nil {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err != nil {
		r.t.Fatalf("rebinding %s: %v", r.addr, err)
	}
	r.bind(l)
}

// The elastic contract end to end: a daemon dies mid-run, its shard
// drains to the survivor, and once it restarts a re-probe re-admits it
// and it pulls queued shards again — with the merged output still
// byte-identical to a standalone run.
func TestFanoutElasticReprobe(t *testing.T) {
	entries := simManifest(t, 8, 4000)
	d0 := startDaemon(t, 1)
	r := startRestartable(t)
	outPath := filepath.Join(t.TempDir(), "merged.jsonl")

	var mu sync.Mutex
	killed, restarted := false, false
	postRestart := 0
	cfg := fanout.Config{
		Entries:      entries,
		Endpoints:    []string{d0.ts.URL, r.url()},
		Shards:       4,
		OutPath:      outPath,
		Spec:         testSpec,
		MaxResubmits: 3,
		Reprobe:      50 * time.Millisecond,
		ReprobeMax:   200 * time.Millisecond,
		OnSubmitted: func(shard int, endpoint, jobID string) {
			mu.Lock()
			defer mu.Unlock()
			if endpoint != r.url() {
				return
			}
			if !killed {
				// Take the daemon down the moment its first shard lands —
				// synchronously, so the next status poll is guaranteed to
				// see a dead endpoint.
				killed = true
				r.kill()
			} else if restarted {
				postRestart++
			}
		},
		OnAppended: func(shard int, offset int64) {
			mu.Lock()
			defer mu.Unlock()
			if killed && !restarted {
				// By the first merge the kill has been noticed and the
				// shard requeued; bring the daemon back so a re-probe can
				// re-admit it while shards are still queued.
				r.restart()
				restarted = true
			}
		},
	}
	sum, err := fanout.Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !killed || !restarted {
		t.Fatalf("schedule never exercised the kill/restart path (killed=%t restarted=%t)", killed, restarted)
	}
	if sum.Resubmits < 1 {
		t.Fatalf("summary %+v: expected at least one resubmission after the daemon kill", sum)
	}
	if sum.Readmissions < 1 {
		t.Fatalf("summary %+v: the restarted daemon was never re-admitted", sum)
	}
	mu.Lock()
	gotPost := postRestart
	mu.Unlock()
	if gotPost < 1 {
		t.Fatalf("re-admitted daemon received %d shards after its restart, want >= 1", gotPost)
	}
	got, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	if want := expectedJSONL(t, entries, testOpts()); !bytes.Equal(got, want) {
		t.Fatalf("elastic fan-out output diverges\ngot:  %q\nwant: %q", got, want)
	}
}

// -sharefreq at tier 5: the coordinator pools codon counts over the
// whole manifest, pins every shard's job to the pooled π, and the
// merged output matches the standalone shared-frequency run byte for
// byte — including across a coordinator kill-and-resume, which must
// replay the recorded π rather than re-pool.
func TestFanoutShareFreqParityAndResume(t *testing.T) {
	entries := simManifest(t, 6, 5000)
	d := startDaemon(t, 1)
	outPath := filepath.Join(t.TempDir(), "merged.jsonl")
	spec := testSpec
	spec.ShareFrequencies = true
	cfg := fanout.Config{
		Entries:   entries,
		Endpoints: []string{d.ts.URL},
		Shards:    3,
		OutPath:   outPath,
		Spec:      spec,
	}

	ctx, cancel := context.WithCancel(context.Background())
	cfg.OnAppended = func(shard int, offset int64) {
		if shard == 0 {
			cancel() // kill the coordinator right after its first merge
		}
	}
	if _, err := fanout.Run(ctx, cfg); err == nil {
		t.Fatal("cancelled coordinator reported success")
	}

	// The π pre-pass ran once and is durably recorded in the ledger.
	ledger, err := os.ReadFile(outPath + ".fanout")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(ledger), `"pi"`) {
		t.Fatal("shard ledger carries no pi record after a -sharefreq run")
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
	opts := testOpts()
	opts.ShareFrequencies = true
	if want := expectedJSONL(t, entries, opts); !bytes.Equal(got, want) {
		t.Fatalf("-sharefreq fan-out diverges from the standalone shared-frequency run\ngot:  %q\nwant: %q", got, want)
	}
}
