package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/fanout"
	"repro/internal/manifest"
	"repro/internal/persistcache"
	"repro/internal/serve"
)

// fleetDaemons is the tier-5 fleet size.
const fleetDaemons = 2

// daemon is one in-process job service on a loopback listener.
type daemon struct {
	srv *serve.Server
	ts  *httptest.Server
}

// startDaemons starts n daemons with fresh data directories under dir,
// all sharing the persistent cache directory, each with one pool
// worker.
func startDaemons(dir, cacheDir string, n int) ([]*daemon, error) {
	var ds []*daemon
	for i := 0; i < n; i++ {
		srv, err := serve.New(serve.Config{
			DataDir:     filepath.Join(dir, fmt.Sprintf("daemon%d", i)),
			PoolWorkers: poolWorkers / fleetDaemons,
			CacheDir:    cacheDir,
		})
		if err != nil {
			stopDaemons(ds)
			return nil, err
		}
		ds = append(ds, &daemon{srv: srv, ts: httptest.NewServer(srv.Handler())})
	}
	return ds, nil
}

// stopDaemons closes the listeners and shuts the services down,
// returning once both have stopped.
func stopDaemons(ds []*daemon) {
	for _, d := range ds {
		d.ts.Close()
		d.srv.Shutdown(context.Background())
	}
}

func urls(ds []*daemon) []string {
	out := make([]string, len(ds))
	for i, d := range ds {
		out[i] = d.ts.URL
	}
	return out
}

// resultHits sums the daemons' persistent result-replay counters.
func resultHits(ctx context.Context, ds []*daemon) (int, error) {
	n := 0
	for _, d := range ds {
		h, err := serve.NewClient(d.ts.URL).Health(ctx)
		if err != nil {
			return 0, err
		}
		if h.Cache == nil || h.Cache.Persist == nil {
			return 0, fmt.Errorf("daemon %s reports no persistent cache", d.ts.URL)
		}
		n += h.Cache.Persist.ResultHits
	}
	return n, nil
}

// jobSpec pins the fleet's job options explicitly.
func jobSpec(w workload) serve.JobSpec {
	return serve.JobSpec{Engine: w.engine, MaxIter: w.maxIter, Seed: 1, Concurrency: 1}
}

// fanOut runs the coordinator with its defaults over the daemons.
func fanOut(ctx context.Context, w workload, entries []manifest.Entry, ds []*daemon, outPath string, hooks *shardHooks) (*fanout.Summary, error) {
	cfg := fanout.Config{Entries: entries, Endpoints: urls(ds), OutPath: outPath, Spec: jobSpec(w)}
	if hooks != nil {
		cfg.OnSubmitted, cfg.OnAppended = hooks.submitted, hooks.appended
	}
	return fanout.Run(ctx, cfg)
}

// fleetPass is one timed tier-5 replay with fresh daemons and output.
type fleetPass struct {
	out      []byte
	replayed int
	summary  *fanout.Summary
}

func runTier5(ctx context.Context, w workload, entries []manifest.Entry, dir, cacheDir string, hooks *shardHooks) (*fleetPass, usage, error) {
	ds, err := startDaemons(dir, cacheDir, fleetDaemons)
	if err != nil {
		return nil, usage{}, err
	}
	defer stopDaemons(ds)
	before, err := resultHits(ctx, ds)
	if err != nil {
		return nil, usage{}, err
	}
	outPath := filepath.Join(dir, "out.jsonl")
	p := &fleetPass{}
	u, err := measure(func() error {
		var err error
		p.summary, err = fanOut(ctx, w, entries, ds, outPath, hooks)
		return err
	})
	if err != nil {
		return nil, u, err
	}
	after, err := resultHits(ctx, ds)
	if err != nil {
		return nil, u, err
	}
	p.replayed = after - before
	p.out, err = os.ReadFile(outPath)
	return p, u, err
}

// runFleet measures fleet-rescan: set-up fills a persistent cache
// through tier 5, and every timed pass replays the whole manifest
// through fresh daemons sharing that cache.
func runFleet(ctx context.Context, cfg config) (*result, error) {
	w := cfg.workload
	var manifestPath string
	var fill []byte
	dir, setupS, err := repeatSetup(cfg.workDir, func(dir string) error {
		var err error
		if manifestPath, err = writeInputs(w, cfg.seed, dir); err != nil {
			return err
		}
		entries, err := manifest.Load(manifestPath)
		if err != nil {
			return err
		}
		ds, err := startDaemons(dir, filepath.Join(dir, "cache"), fleetDaemons)
		if err != nil {
			return err
		}
		defer stopDaemons(ds)
		fillPath := filepath.Join(dir, "fill.jsonl")
		if _, err := fanOut(ctx, w, entries, ds, fillPath, nil); err != nil {
			return err
		}
		fill, err = os.ReadFile(fillPath)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	cacheDir := filepath.Join(dir, "cache")
	entries, err := manifest.Load(manifestPath)
	if err != nil {
		return nil, err
	}
	var chk checker
	chk.pass(fill, entries)
	var m measured
	replay := func(p *fleetPass) {
		chk.pass(p.out, entries)
		if p.replayed != len(entries) {
			chk.fail("tier 5 replayed %d of %d genes from the filled cache", p.replayed, len(entries))
		}
	}
	seconds := cfg.seconds
	if cfg.trace {
		seconds = 0
	}
	err = passLoop(seconds, func(i int) error {
		passDir := filepath.Join(cfg.workDir, fmt.Sprintf("pass%d", i))
		p, u, err := runTier5(ctx, w, entries, passDir, cacheDir, nil)
		if err != nil {
			return err
		}
		m.add(u, len(entries))
		replay(p)
		return os.RemoveAll(passDir)
	})
	if err != nil {
		return nil, err
	}
	var metrics map[string]metric
	if cfg.trace {
		metrics, err = traceFleet(ctx, cfg, entries, manifestPath, cacheDir, &chk, &m, replay)
		if err != nil {
			return nil, err
		}
	} else {
		truth, err := trueLnL(entries)
		if err != nil {
			return nil, err
		}
		metrics = endToEnd(&m, len(entries), &chk, truth, setupS)
	}
	chk.report()
	return &result{Correct: chk.ok(), Attempted: chk.attempted, Failed: chk.failed, Metrics: metrics}, nil
}

// shardHooks records the coordinator's shard lifecycle as spans.
type shardHooks struct {
	tr       *tracer
	parent   int
	mu       sync.Mutex
	submitAt map[int]time.Time
	appends  []time.Time
}

func (h *shardHooks) submitted(shard int, endpoint, jobID string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.submitAt[shard] = time.Now()
}

func (h *shardHooks) appended(shard int, offset int64) {
	now := time.Now()
	h.mu.Lock()
	defer h.mu.Unlock()
	h.appends = append(h.appends, now)
	if t0, ok := h.submitAt[shard]; ok {
		h.tr.add("fanout.shard", fmt.Sprintf("shard%d", shard), h.parent, t0, now)
	}
}

// appendGaps returns the times between successive shard appends.
func (h *shardHooks) appendGaps() []float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	ts := append([]time.Time(nil), h.appends...)
	sort.Slice(ts, func(i, j int) bool { return ts[i].Before(ts[j]) })
	var gaps []float64
	for i := 1; i < len(ts); i++ {
		gaps = append(gaps, ts[i].Sub(ts[i-1]).Seconds())
	}
	return gaps
}

// traceFleet runs the traced tier-5 pass, the same manifest through
// one daemon (tier 4) and through checkpoint.Run (tier 3), all
// replaying from the filled cache, and measures the per-layer
// metrics. m holds the untraced tier-5 pass.
func traceFleet(ctx context.Context, cfg config, entries []manifest.Entry, manifestPath, cacheDir string, chk *checker, m *measured, replay func(*fleetPass)) (map[string]metric, error) {
	w := cfg.workload
	genes := float64(len(entries))
	tr := newTracer()
	out := metricSet{}

	start := time.Now()
	run := tr.add("fanout.run", "", 0, start, start)
	hooks := &shardHooks{tr: tr, parent: run, submitAt: map[int]time.Time{}}
	p, u, err := runTier5(ctx, w, entries, filepath.Join(cfg.workDir, "traced5"), cacheDir, hooks)
	tr.finish(run, time.Now())
	if err != nil {
		return nil, err
	}
	replay(p)
	tier5 := u.wall
	out.set("trace_overhead", genes/u.wall/m.genesPerSecond(len(entries)))
	out.set("fanout.run_s", tier5)
	out.set("fanout.resubmits", float64(p.summary.Resubmits))
	out.set("fanout.submit_to_append_s", mean(tr.durations("fanout.shard")))
	out.set("fanout.append_gap_s", mean(hooks.appendGaps()))
	out.set("persistcache.replay_ratio", float64(p.replayed)/genes)
	out.set("persistcache.store_bytes", float64(dirBytes(cacheDir))/genes)

	tier4, err := traceTier4(ctx, w, entries, manifestPath, filepath.Join(cfg.workDir, "tier4"), cacheDir, tr, out, chk)
	if err != nil {
		return nil, err
	}
	out.set("fanout.tier5_overhead", tier5/tier4)

	store, err := persistcache.Open(cacheDir)
	if err != nil {
		return nil, err
	}
	dir3 := filepath.Join(cfg.workDir, "tier3")
	if err := os.MkdirAll(dir3, 0o755); err != nil {
		return nil, err
	}
	out3 := filepath.Join(dir3, "out.jsonl")
	t0 := time.Now()
	sum, _, err := tr.runCheckpointed(ctx, entries, out3, streamOptions(w, store))
	tier3 := time.Since(t0).Seconds()
	if err != nil {
		return nil, err
	}
	b, err := os.ReadFile(out3)
	if err != nil {
		return nil, err
	}
	chk.pass(b, entries)
	if sum.Replayed != len(entries) {
		chk.fail("tier 3 replayed %d of %d genes from the tier-5-filled cache", sum.Replayed, len(entries))
	}
	out.set("serve.tier4_overhead", tier4/tier3)
	out.set("core.source_next_s", mean(tr.durations("core.source.next")))
	out.set("checkpoint.sink_write_s", mean(tr.durations("checkpoint.sink.write")))
	ledger, err := os.Stat(checkpoint.LedgerPath(out3))
	if err != nil {
		return nil, err
	}
	out.set("checkpoint.ledger_bytes", float64(ledger.Size())/genes)
	out.set("lik.decompositions", float64(sum.CacheMisses)/genes)
	out.set("lik.decomp_hit_ratio", 0)

	if err := kernelLayers(out); err != nil {
		return nil, err
	}
	if err := alignLayers(out, entries); err != nil {
		return nil, err
	}
	out.offPath(fitLayers...)
	out.offPath(likLayers...)
	if err := writeSpans(tr, cfg); err != nil {
		return nil, err
	}
	return out.complete(perLayer)
}

// traceTier4 submits the manifest to one daemon with serve.Client,
// follows its results to the end and returns the tier-4 wall time
// (submit to last row).
func traceTier4(ctx context.Context, w workload, entries []manifest.Entry, manifestPath, dir, cacheDir string, tr *tracer, out metricSet, chk *checker) (float64, error) {
	ds, err := startDaemons(dir, cacheDir, 1)
	if err != nil {
		return 0, err
	}
	defer stopDaemons(ds)
	c := serve.NewClient(ds[0].ts.URL)
	spec := jobSpec(w)
	spec.ManifestPath = manifestPath

	t0 := time.Now()
	st, err := c.Submit(ctx, spec)
	t1 := time.Now()
	if err != nil {
		return 0, err
	}
	job := tr.add("serve.job", st.ID, 0, t0, t0)
	tr.add("serve.submit", st.ID, job, t0, t1)
	rc, _, err := c.FollowResults(ctx, st.ID, 0)
	if err != nil {
		return 0, err
	}
	defer rc.Close()
	var rows bytes.Buffer
	var first time.Time
	sc := bufio.NewScanner(rc)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for sc.Scan() {
		if first.IsZero() {
			first = time.Now()
			tr.add("serve.follow.first_row", st.ID, job, t1, first)
		}
		rows.Write(sc.Bytes())
		rows.WriteByte('\n')
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	end := time.Now()
	tr.finish(job, end)
	t2 := time.Now()
	if _, err := c.JobStatus(ctx, st.ID); err != nil {
		return 0, err
	}
	status := time.Since(t2).Seconds()
	chk.pass(rows.Bytes(), entries)
	if first.IsZero() {
		first = end
	}
	out.set("serve.submit_s", t1.Sub(t0).Seconds())
	out.set("serve.follow_first_row_s", first.Sub(t1).Seconds())
	out.set("serve.job_s", end.Sub(t0).Seconds())
	out.set("serve.status_s", status)
	return end.Sub(t0).Seconds(), nil
}
