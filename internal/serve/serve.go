// Package serve is the fourth execution tier of the batch pipeline: a
// long-running job service that accepts manifest analyses over
// HTTP/JSON, runs them through core.RunBatchStream on one shared
// worker pool and eigendecomposition cache, checkpoints every gene to
// a per-job ledger (internal/checkpoint), and streams results back as
// JSON Lines. Where tiers 1–3 are one-shot processes, the service
// survives its jobs: a killed daemon restarts, revalidates every
// unfinished job's ledger, and resumes each from its last checkpointed
// gene.
//
// # Invariants
//
//   - One pool, one cache: every job's likelihood engines execute on
//     the server's single lik.Pool and share its DecompCache, so
//     concurrent jobs contend for CPU in the pool's queue instead of
//     oversubscribing the machine, and repeated (κ, ω, π)
//     decompositions are shared across jobs. Per-job results remain
//     bit-identical to a standalone run — pool sharing reorders work,
//     never arithmetic (the tier-2/3 guarantee).
//   - Durable progress: a job's results file and checkpoint ledger
//     live in the data directory and are synced gene by gene; the
//     in-memory Job is just a view. Cancellation, graceful shutdown
//     and crashes all leave the pair checkpoint-consistent, so a
//     resumed job's output is byte-identical to an uninterrupted run.
//   - Bounded intake: Submit refuses jobs beyond the queue depth
//     instead of queueing unboundedly, and at most MaxActive jobs run
//     at once.
//   - States: queued → running → done | failed | cancelled |
//     interrupted. "cancelled" is a caller's DELETE; "interrupted"
//     means the daemon shut down first — the job resumes on the next
//     start. Both stop promptly: no new gene starts, in-flight genes
//     drain.
//   - Job index: every lifecycle transition goes through one method
//     (transitionLocked), which appends the job's record to a
//     jobs.index ledger in the data directory (checkpoint.JobIndex)
//     and counts the event in slimcodemld_jobs_total, so restart
//     recovery reads one file instead of revalidating every historical
//     job's ledger. The index is derived state — corruption, deletion
//     or a pre-index data directory all fall back to the directory
//     scan, which also reconciles jobs the index missed (a torn tail).
//   - Multi-tenancy is opt-in (Config.TenantsPath):
//     bearer-token auth on the /jobs routes, per-tenant admission
//     quotas, and deterministic round-robin fair-share scheduling
//     (sched.go). Without it the daemon authenticates nothing, queues
//     FIFO, and keeps its exact pre-tenancy wire shapes.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/align"
	"repro/internal/checkpoint"
	"repro/internal/codon"
	"repro/internal/core"
	"repro/internal/lik"
	"repro/internal/manifest"
	"repro/internal/obs"
	"repro/internal/persistcache"
)

// Config sizes the job service.
type Config struct {
	// DataDir holds per-job specs, results and checkpoint ledgers; it
	// is created if absent. A restarted server pointed at the same
	// directory recovers its jobs.
	DataDir string
	// PoolWorkers sizes the shared likelihood worker pool
	// (0 = GOMAXPROCS).
	PoolWorkers int
	// QueueDepth bounds jobs waiting to run (default 16); Submit
	// refuses beyond it.
	QueueDepth int
	// MaxActive bounds jobs running concurrently (default 1 — each job
	// already parallelizes across its genes on the shared pool).
	MaxActive int
	// CacheSize caps the shared eigendecomposition cache (default
	// 1024 entries).
	CacheSize int
	// Format selects the alignment format for every job
	// (default: sniff per file).
	Format align.Format
	// CacheDir, when non-empty, roots the cross-run warm cache
	// (persistcache.Store): already-analyzed manifest rows replay
	// byte-identically instead of refitting, across daemon restarts.
	// The directory is separate from per-job files by
	// construction, so purges and retention sweeps never touch it.
	// Multiple daemons may share one cache directory. Empty disables
	// persistence.
	CacheDir string
	// Retain, when positive, bounds the data directory: finished jobs
	// (done, failed or cancelled — never interrupted, which resume on
	// restart) are purged, files and all, once their finish time is
	// older than this window. Zero keeps jobs forever (negative is
	// refused by New); DELETE with ?purge=1 still removes them on
	// demand. Degenerate sub-tick windows are safe: the sweep interval
	// is clamped (sweepInterval), never handed raw to time.NewTicker.
	Retain time.Duration
	// Log receives the daemon's structured events (job lifecycle,
	// restart recovery, retention sweeps). Nil discards them — the
	// server never falls back to the process-global logger, so
	// embedding tests stay silent by default.
	Log *slog.Logger
	// TenantsPath, when non-empty, turns multi-tenancy on: the file
	// (see ParseTenants for the format) defines the tenants, their
	// bearer tokens and their quotas. The /jobs routes then require
	// authentication, tenants see only their own jobs, and the
	// scheduler round-robins across tenants. The file is hot-reloaded
	// when its mtime changes (and via ReloadTenants / SIGHUP in
	// slimcodemld); a reload that fails to parse keeps the previous
	// set. Empty leaves the daemon exactly as before: no auth, one
	// FIFO queue, unchanged wire shapes.
	TenantsPath string
}

func (c *Config) fill() {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 16
	}
	if c.MaxActive <= 0 {
		c.MaxActive = 1
	}
	if c.CacheSize <= 0 {
		c.CacheSize = 1024
	}
}

// Submit overload errors; the HTTP layer maps them to 503.
var (
	ErrQueueFull    = errors.New("serve: job queue is full")
	ErrShuttingDown = errors.New("serve: server is shutting down")
)

// ErrTenantQueueFull is Submit refusing a job because the tenant's own
// max_queued quota is exhausted while the global queue still has room.
// The HTTP layer maps it to 429 — the caller specifically is over
// quota; the daemon is not overloaded.
var ErrTenantQueueFull = errors.New("serve: tenant queue quota exceeded")

// ErrJobActive is Purge refusing a queued or running job; cancel it
// first. The HTTP layer maps it to 409.
var ErrJobActive = errors.New("serve: job is still active; cancel it first")

// ErrUnknownJob marks operations on a job id the server does not hold
// (never submitted, or already purged). The HTTP layer maps it to 404.
var ErrUnknownJob = errors.New("serve: unknown job")

// Health is the /healthz wire representation: liveness plus queue
// occupancy and cache effectiveness.
type Health struct {
	Status      string `json:"status"` // "ok" or "shutting-down"
	Jobs        int    `json:"jobs"`
	QueueLen    int    `json:"queue_len"`
	QueueCap    int    `json:"queue_cap"`
	PoolWorkers int    `json:"pool_workers"`
	// Cache reports the shared eigendecomposition cache and — when a
	// cache directory is configured — the persistent store's counters,
	// so warm-vs-cold behavior is observable without log spelunking.
	Cache *CacheHealth `json:"cache,omitempty"`
	// Tenants reports per-tenant occupancy and admission counters;
	// present only with tenancy configured, so the pre-tenancy wire
	// shape is unchanged. Every number is read from the same metric
	// series /metrics exposes, so the two endpoints agree by
	// construction (the CacheHealth discipline).
	Tenants []TenantHealth `json:"tenants,omitempty"`
}

// TenantHealth is one tenant's row in the /healthz payload.
type TenantHealth struct {
	Name string `json:"name"`
	// Active and Queued are the tenant's current scheduler occupancy.
	Active int `json:"active"`
	Queued int `json:"queued"`
	// Submitted, Dispatched and QuotaRefusals are cumulative over the
	// daemon's lifetime.
	Submitted     int `json:"submitted"`
	Dispatched    int `json:"dispatched"`
	QuotaRefusals int `json:"quota_refusals"`
}

// CacheHealth is the cache section of the /healthz payload. Every
// number here is read from the same source the equivalent /metrics
// series reads at scrape time (lik.DecompCache.Stats, the persistent
// store's counters), so the two endpoints can never disagree about
// cache effectiveness.
type CacheHealth struct {
	// DecompEntries / DecompHits / DecompMisses report the in-memory
	// eigendecomposition cache (lik.DecompCache.Stats), cumulative over
	// the daemon's lifetime; DecompEvictions counts LRU displacements
	// (capacity pressure).
	DecompEntries   int `json:"decomp_entries"`
	DecompHits      int `json:"decomp_hits"`
	DecompMisses    int `json:"decomp_misses"`
	DecompEvictions int `json:"decomp_evictions"`
	// Persist holds the persistent store's hit/miss/write counters;
	// absent when no cache directory is configured.
	Persist *persistcache.Counters `json:"persist,omitempty"`
}

// JobSpec is a submitted analysis: a manifest plus the
// result-affecting options. Exactly one of ManifestPath and Manifest
// must be set.
type JobSpec struct {
	// ManifestPath names a manifest file on the server's filesystem.
	ManifestPath string `json:"manifest_path,omitempty"`
	// Manifest is inline manifest text ("name align tree" rows);
	// relative paths resolve against BaseDir.
	Manifest string `json:"manifest,omitempty"`
	BaseDir  string `json:"base_dir,omitempty"`

	// Tenant is the owning tenant's name. It is server-assigned: the
	// HTTP layer overwrites whatever the client sent with the
	// authenticated tenant (or clears it with tenancy off), so a
	// client can neither spoof another tenant nor invent one. Persisted
	// with the spec so ownership survives restarts.
	Tenant string `json:"tenant,omitempty"`

	Engine           string `json:"engine,omitempty"` // baseline|slim|slim-sym|slim-bundled (default slim)
	Freq             string `json:"freq,omitempty"`   // f61|f3x4|uniform (default f61)
	MaxIter          int    `json:"max_iter,omitempty"`
	Seed             int64  `json:"seed,omitempty"`
	M0Start          bool   `json:"m0_start,omitempty"`
	ShareFrequencies bool   `json:"share_frequencies,omitempty"`
	// Frequencies, when non-empty, pins the equilibrium codon
	// frequencies (universal-code order, one weight per sense codon)
	// instead of estimating them from this job's own genes — how a
	// fan-out coordinator hands every shard the identical
	// whole-manifest π so -sharefreq holds at tier 5. The values
	// survive the JSON round trip bit-exactly: Go prints the shortest
	// decimal that re-parses to the same float64. With ShareFrequencies
	// also set, the per-job pooling pre-pass is skipped and the preset
	// vector is used directly.
	Frequencies []float64 `json:"frequencies,omitempty"`
	// Concurrency bounds genes fitted at once within this job
	// (0 = GOMAXPROCS); Prefetch bounds resident genes (0 = 2×
	// concurrency).
	Concurrency int `json:"concurrency,omitempty"`
	Prefetch    int `json:"prefetch,omitempty"`
}

// Job states.
const (
	StateQueued      = "queued"
	StateRunning     = "running"
	StateDone        = "done"
	StateFailed      = "failed"
	StateCancelled   = "cancelled"
	StateInterrupted = "interrupted"
)

// Job is one submitted analysis and its progress. All fields behind mu.
type Job struct {
	id      string
	tenant  string // owning tenant ("" = tenancy off); immutable
	spec    JobSpec
	entries []manifest.Entry
	digest  string // manifest.Digest(entries); immutable after creation
	opts    core.StreamOptions

	outPath, ledgerPath, specPath string

	mu        sync.Mutex
	state     string
	total     int
	done      int
	failed    int
	errMsg    string
	cancelled bool
	cancel    context.CancelFunc // non-nil while running
	submitted time.Time
	started   time.Time
	finished  time.Time
	summary   *core.StreamSummary
	// changed is closed and replaced whenever state, done or failed
	// change (setLocked) — the signal follow streams wait on.
	changed chan struct{}
}

// setLocked records the job's state and progress counters and fires
// the change signal. Every write of state, done and failed goes through
// here, so no follow stream can miss one. Callers hold j.mu (or own the
// job exclusively during recovery).
func (j *Job) setLocked(state string, done, failed int) {
	j.state, j.done, j.failed = state, done, failed
	close(j.changed)
	j.changed = make(chan struct{})
}

// watch reports whether the job has reached a terminal state, together
// with the change signal that fires on its next change — taken under
// one lock, so a change after the snapshot always fires the returned
// channel.
func (j *Job) watch() (terminal bool, changed <-chan struct{}) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state != StateQueued && j.state != StateRunning, j.changed
}

// Status is the wire representation of a job's state.
type Status struct {
	ID string `json:"id"`
	// Tenant is the owning tenant; absent with tenancy off, so the
	// pre-tenancy wire shape is unchanged.
	Tenant string `json:"tenant,omitempty"`
	State  string `json:"state"`
	// Total, Done and Failed are gene counts; Done includes genes
	// checkpointed by earlier incarnations of a resumed job.
	Total  int    `json:"total"`
	Done   int    `json:"done"`
	Failed int    `json:"failed"`
	Error  string `json:"error,omitempty"`
	// ManifestDigest fingerprints the job's manifest rows
	// (manifest.Digest) — the identity a fan-out coordinator checks
	// before adopting a recorded job id, since ids can be reissued
	// after a purge + daemon restart.
	ManifestDigest string `json:"manifest_digest,omitempty"`

	Submitted time.Time  `json:"submitted"`
	Started   *time.Time `json:"started,omitempty"`
	Finished  *time.Time `json:"finished,omitempty"`

	// RuntimeSec and the cache counters cover the job's last run
	// segment (a resumed job restarts them).
	RuntimeSec  float64 `json:"runtime_sec,omitempty"`
	CacheHits   int     `json:"cache_hits,omitempty"`
	CacheMisses int     `json:"cache_misses,omitempty"`
}

// Status snapshots the job.
func (j *Job) Status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := Status{
		ID: j.id, Tenant: j.tenant, State: j.state,
		Total: j.total, Done: j.done, Failed: j.failed,
		Error:          j.errMsg,
		ManifestDigest: j.digest,
		Submitted:      j.submitted,
	}
	if !j.started.IsZero() {
		t := j.started
		st.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.Finished = &t
	}
	if j.summary != nil {
		st.RuntimeSec = j.summary.Runtime.Seconds()
		st.CacheHits = j.summary.CacheHits
		st.CacheMisses = j.summary.CacheMisses
	}
	return st
}

// Server is the job service: a bounded queue of manifest jobs executed
// on one shared pool and cache. Create with New, serve its Handler,
// stop with Shutdown.
type Server struct {
	cfg   Config
	pool  *lik.Pool
	cache *lik.DecompCache
	store *persistcache.Store // nil without Config.CacheDir
	met   *serverMetrics
	log   *slog.Logger

	// tenancy is fixed at New: per-tenant series and auth exist iff a
	// tenant source was configured. The tenant *set* behind the atomic
	// pointer hot-reloads; nil means no set loaded (refuse everything).
	tenancy bool
	tenants atomic.Pointer[tenantSet]

	idx *checkpoint.JobIndex

	mu     sync.Mutex
	jobs   map[string]*Job
	order  []string
	nextID int
	closed bool

	sched *scheduler
	quit  chan struct{}
	wg    sync.WaitGroup
}

// jobSeq parses the daemon's job-ID convention ("j%06d"), reporting
// the sequence number — the checkpoint.JobIndex hook that keeps IDs
// from being reissued.
func jobSeq(id string) (int, bool) {
	var n int
	if _, err := fmt.Sscanf(id, "j%06d", &n); err != nil {
		return 0, false
	}
	return n, true
}

// New builds a server, recovers any unfinished jobs found in the data
// directory (re-queueing them to resume from their checkpoints), and
// starts the job runners.
func New(cfg Config) (*Server, error) {
	cfg.fill()
	if cfg.DataDir == "" {
		return nil, fmt.Errorf("serve: Config.DataDir is required")
	}
	if cfg.Retain < 0 {
		return nil, fmt.Errorf("serve: negative retention window %s (use 0 to keep jobs forever)", cfg.Retain)
	}
	if err := os.MkdirAll(cfg.DataDir, 0o755); err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	s := &Server{
		cfg:   cfg,
		pool:  lik.NewPool(cfg.PoolWorkers),
		cache: lik.NewDecompCache(cfg.CacheSize),
		jobs:  make(map[string]*Job),
		quit:  make(chan struct{}),
	}
	if cfg.TenantsPath != "" {
		ts, err := LoadTenants(cfg.TenantsPath)
		if err != nil {
			s.pool.Close()
			return nil, err
		}
		s.tenancy = true
		s.tenants.Store(newTenantSet(ts))
	}
	if cfg.CacheDir != "" {
		store, err := persistcache.Open(cfg.CacheDir)
		if err != nil {
			s.pool.Close()
			return nil, err
		}
		s.store = store
	}
	s.log = cfg.Log
	if s.log == nil {
		s.log = obs.NopLogger()
	}
	// Metrics exist before recovery: recovered jobs re-resolve their
	// specs (which binds the stream to the registry) and recovery itself
	// counts lifecycle events.
	s.met = newServerMetrics(s)
	recovered, err := s.recover()
	if err != nil {
		s.pool.Close()
		return nil, err
	}
	// The queue must hold every recovered unfinished job plus the
	// configured intake depth.
	s.sched = newScheduler(cfg.QueueDepth+len(recovered), s.tenantLimits)
	s.sched.onChange = s.met.tenantOccupancy
	s.sched.onDispatch = s.met.tenantDispatch
	s.met.touchTenants(s.currentTenantNames())
	for _, job := range recovered {
		// force: the capacity was sized to hold them, and a shrunk quota
		// must never orphan a recovered job.
		s.sched.enqueue(job, true)
	}
	for i := 0; i < cfg.MaxActive; i++ {
		s.wg.Add(1)
		go s.runner()
	}
	if cfg.Retain > 0 {
		s.wg.Add(1)
		go s.sweeper()
	}
	if cfg.TenantsPath != "" {
		s.wg.Add(1)
		go s.tenantsWatcher()
	}
	return s, nil
}

// tenantLimits resolves a tenant's quotas against the current
// (hot-reloadable) tenant set — the scheduler's admission hook.
func (s *Server) tenantLimits(name string) (maxActive, maxQueued int) {
	ts := s.tenants.Load()
	if ts == nil {
		return 0, 0
	}
	return ts.limits(name)
}

// currentTenantNames returns the configured tenant names (nil with
// tenancy off).
func (s *Server) currentTenantNames() []string {
	ts := s.tenants.Load()
	if ts == nil {
		return nil
	}
	return ts.names()
}

// ReloadTenants re-reads the tenants file. A file that fails to load
// or parse is an error and keeps the previous tenant set — a bad edit
// must not lock every client out. New quotas apply to subsequent
// admission and dispatch decisions immediately.
func (s *Server) ReloadTenants() error {
	if s.cfg.TenantsPath == "" {
		return fmt.Errorf("serve: no tenants file configured")
	}
	ts, err := LoadTenants(s.cfg.TenantsPath)
	if err != nil {
		s.met.tenantReload(false)
		return err
	}
	s.tenants.Store(newTenantSet(ts))
	s.met.tenantReload(true)
	s.met.touchTenants(s.currentTenantNames())
	s.log.Info("tenants reloaded", "tenants", len(ts))
	return nil
}

// tenantsWatcher hot-reloads the tenants file when its mtime changes,
// so token rotation and quota edits need no restart (SIGHUP in
// slimcodemld forces the same reload).
func (s *Server) tenantsWatcher() {
	defer s.wg.Done()
	var last time.Time
	if info, err := os.Stat(s.cfg.TenantsPath); err == nil {
		last = info.ModTime()
	}
	t := time.NewTicker(tenantsPollInterval)
	defer t.Stop()
	for {
		select {
		case <-s.quit:
			return
		case <-t.C:
			info, err := os.Stat(s.cfg.TenantsPath)
			if err != nil || info.ModTime().Equal(last) {
				continue
			}
			last = info.ModTime()
			if err := s.ReloadTenants(); err != nil {
				s.log.Warn("tenants reload failed; keeping previous tenant set",
					"path", s.cfg.TenantsPath, "error", err)
			}
		}
	}
}

// tenantsPollInterval is how often the watcher stats the tenants file
// (a var so tests can tighten it).
var tenantsPollInterval = time.Second

// Purge removes a finished job entirely: its results, ledger and spec
// files are deleted from the data directory and the job disappears
// from the listing — how callers (a fan-out coordinator collecting
// shards, or the -retain sweep) bound the data directory, which
// otherwise grows one results+ledger+spec triple per job forever.
// Queued and running jobs are refused with ErrJobActive; cancel them
// first. The cross-run cache (Config.CacheDir) is never touched:
// purging removes exactly the per-job paths, and cache files live in
// their own directory tree.
func (s *Server) Purge(id string) error { return s.purge(id, eventPurged) }

// purge implements Purge; event distinguishes caller-driven purges
// from the retention sweeper's in the lifecycle counter and the log.
func (s *Server) purge(id, event string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	job, ok := s.jobs[id]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownJob, id)
	}
	job.mu.Lock()
	defer job.mu.Unlock()
	switch job.state {
	case StateQueued, StateRunning:
		return ErrJobActive
	}
	// Files first: a removal failure leaves the job listed so the purge
	// can be retried.
	// Older daemons kept a per-job codon-count cache in <id>.counts;
	// it stays on the list so their data directories do not leak one
	// file per purged job.
	legacyCounts := filepath.Join(s.cfg.DataDir, id+".counts")
	for _, p := range []string{job.outPath, job.ledgerPath, job.specPath, legacyCounts} {
		if err := os.Remove(p); err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("serve: purge %s: %w", id, err)
		}
	}
	delete(s.jobs, id)
	for i, jid := range s.order {
		if jid == id {
			s.order = append(s.order[:i], s.order[i+1:]...)
			break
		}
	}
	if err := s.idx.Purge(id); err != nil {
		// The index is derived state; a failed tombstone only means the
		// next restart re-reconciles this id against the (gone) spec file.
		s.log.Warn("job index purge append failed", "job", id, "error", err)
	}
	s.met.jobEvents.With(event).Inc()
	if event == eventSwept {
		s.log.Info("retention sweep purged expired job",
			"job", id, "state", job.state, "finished", job.finished)
	} else {
		s.log.Info("job purged", "job", id, "state", job.state)
	}
	return nil
}

// sweepInterval derives the sweeper's tick from the retention window:
// a quarter of it, clamped to [50 ms, 1 min]. The floor keeps
// degenerate windows safe — retain/4 rounds to 0 for anything under
// 4 ns, and time.NewTicker panics on a non-positive interval — while
// still sweeping such windows promptly; the ceiling keeps huge windows
// from deferring cleanup for hours past expiry.
func sweepInterval(retain time.Duration) time.Duration {
	interval := retain / 4
	if interval < 50*time.Millisecond {
		interval = 50 * time.Millisecond
	}
	if interval > time.Minute {
		interval = time.Minute
	}
	return interval
}

// sweeper purges expired finished jobs every sweepInterval until
// shutdown.
func (s *Server) sweeper() {
	defer s.wg.Done()
	t := time.NewTicker(sweepInterval(s.cfg.Retain))
	defer t.Stop()
	for {
		select {
		case <-s.quit:
			return
		case <-t.C:
			s.sweepExpired()
		}
	}
}

// sweepExpired purges every done, failed or cancelled job whose finish
// time has aged past the retention window. Interrupted jobs are left
// alone: they resume on the next start and purging them would discard
// resumable work.
func (s *Server) sweepExpired() {
	cutoff := time.Now().Add(-s.cfg.Retain)
	s.mu.Lock()
	var expired []string
	for id, j := range s.jobs {
		j.mu.Lock()
		switch j.state {
		case StateDone, StateFailed, StateCancelled:
			if !j.finished.IsZero() && j.finished.Before(cutoff) {
				expired = append(expired, id)
			}
		}
		j.mu.Unlock()
	}
	s.mu.Unlock()
	for _, id := range expired {
		// Best effort; a failed removal is retried next sweep.
		if err := s.purge(id, eventSwept); err != nil && !errors.Is(err, ErrUnknownJob) {
			s.log.Warn("retention sweep could not purge job; will retry",
				"job", id, "error", err)
		}
	}
}

// cacheHealth snapshots the cache counters for /healthz from exactly
// the sources the /metrics function-backed series read, keeping the
// two endpoints in agreement by construction.
func (s *Server) cacheHealth() *CacheHealth {
	hits, misses := s.cache.Stats()
	ch := &CacheHealth{
		DecompEntries:   s.cache.Len(),
		DecompHits:      hits,
		DecompMisses:    misses,
		DecompEvictions: s.cache.Evictions(),
	}
	if s.store != nil {
		c := s.store.Counters()
		ch.Persist = &c
	}
	return ch
}

// tenantHealth snapshots the per-tenant rows for /healthz, reading
// exactly the metric series /metrics exposes (the CacheHealth
// agreement discipline). Nil with tenancy off, keeping the
// pre-tenancy wire shape.
func (s *Server) tenantHealth() []TenantHealth {
	if !s.tenancy {
		return nil
	}
	names := s.currentTenantNames()
	out := make([]TenantHealth, 0, len(names))
	for _, name := range names {
		out = append(out, TenantHealth{
			Name:          name,
			Active:        int(s.met.tenantActive.With(name).Value()),
			Queued:        int(s.met.tenantQueued.With(name).Value()),
			Submitted:     int(s.met.tenantSubmitted.With(name).Value()),
			Dispatched:    int(s.met.tenantDispatched.With(name).Value()),
			QuotaRefusals: int(s.met.tenantRefusals.With(name).Value()),
		})
	}
	return out
}

// jobsSnapshot collects the jobs in submission order; with scoped set
// only the tenant's own.
func (s *Server) jobsSnapshot(tenant string, scoped bool) []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	jobs := make([]*Job, 0, len(s.order))
	for _, id := range s.order {
		j := s.jobs[id]
		if scoped && j.tenant != tenant {
			continue
		}
		jobs = append(jobs, j)
	}
	return jobs
}

func statuses(jobs []*Job) []Status {
	out := make([]Status, len(jobs))
	for i, j := range jobs {
		out[i] = j.Status()
	}
	return out
}

// Jobs returns every job's status in submission order.
func (s *Server) Jobs() []Status { return statuses(s.jobsSnapshot("", false)) }

// JobsPage is one window of a paginated listing.
type JobsPage struct {
	Jobs []Status `json:"jobs"`
	// Total is the full (tenant-visible) job count; NextOffset is the
	// offset of the next window, present only when one exists.
	Total      int `json:"total"`
	NextOffset int `json:"next_offset,omitempty"`
}

// JobsPage lists the window [offset, offset+limit) of the jobs visible
// under (tenant, scoped) — how GET /jobs?offset=&limit= serves a data
// directory holding millions of historical jobs without marshalling
// them all per request. limit <= 0 means no bound.
func (s *Server) JobsPage(tenant string, scoped bool, offset, limit int) JobsPage {
	jobs := s.jobsSnapshot(tenant, scoped)
	total := len(jobs)
	if offset < 0 {
		offset = 0
	}
	if offset > total {
		offset = total
	}
	end := total
	if limit > 0 && offset+limit < end {
		end = offset + limit
	}
	page := JobsPage{Jobs: statuses(jobs[offset:end]), Total: total}
	if end < total {
		page.NextOffset = end
	}
	return page
}

// Job returns the job by id.
func (s *Server) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// ResultsPath returns the job's JSONL results file.
func (j *Job) ResultsPath() string { return j.outPath }

// Submit validates the spec, persists it, and enqueues the job. The
// spec's Tenant field is trusted here — the HTTP layer has already
// overwritten it with the authenticated tenant (or cleared it).
func (s *Server) Submit(spec JobSpec) (*Job, error) {
	entries, opts, err := s.resolveSpec(spec)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrShuttingDown
	}
	s.nextID++
	id := fmt.Sprintf("j%06d", s.nextID)
	job := s.newJob(id, spec, entries, opts)
	job.submitted = time.Now()
	// Reserve a queue slot before persisting so a full queue refuses
	// cleanly.
	if err := s.sched.enqueue(job, false); err != nil {
		s.mu.Unlock()
		switch {
		case errors.Is(err, ErrTenantQueueFull):
			s.met.tenantQuotaRefusal(job.tenant)
			_, maxQueued := s.tenantLimits(job.tenant)
			return nil, fmt.Errorf("%w: tenant %s has %d jobs queued (max_queued)",
				ErrTenantQueueFull, job.tenant, maxQueued)
		case errors.Is(err, ErrQueueFull):
			return nil, fmt.Errorf("%w (%d queued)", ErrQueueFull, s.sched.capacityCap())
		}
		return nil, err
	}
	s.jobs[id] = job
	s.order = append(s.order, id)
	s.mu.Unlock()
	s.met.jobEvents.With(eventSubmitted).Inc()
	s.met.tenantSubmit(job.tenant, s.tenancy)
	if job.tenant != "" {
		s.log.Info("job submitted", "job", id, "tenant", job.tenant, "genes", job.total)
	} else {
		s.log.Info("job submitted", "job", id, "genes", job.total)
	}
	if err := job.persistSpec(); err != nil {
		// The runner will still execute the job; it just will not be
		// recovered after a restart.
		job.mu.Lock()
		job.errMsg = fmt.Sprintf("spec not persisted: %v", err)
		job.mu.Unlock()
		s.log.Warn("job spec not persisted; job will not survive a restart",
			"job", id, "error", err)
	}
	job.mu.Lock()
	s.indexPutLocked(job)
	job.mu.Unlock()
	return job, nil
}

// indexPutLocked appends the job's current state to the job index.
// Callers hold job.mu (or exclusive access during recovery). Append
// failures are logged, never fatal: the index is derived state and the
// next restart's directory reconciliation rebuilds what it missed.
func (s *Server) indexPutLocked(job *Job) {
	if s.idx == nil {
		return
	}
	rec := checkpoint.JobIndexRecord{
		ID: job.id, Tenant: job.tenant, State: job.state,
		Total: job.total, Done: job.done, Failed: job.failed,
		Error: job.errMsg, Digest: job.digest,
	}
	if !job.submitted.IsZero() {
		rec.SubmittedUnixNano = job.submitted.UnixNano()
	}
	if !job.finished.IsZero() {
		rec.FinishedUnixNano = job.finished.UnixNano()
	}
	if err := s.idx.Put(rec); err != nil {
		s.log.Warn("job index append failed; rebuilt on next start",
			"job", job.id, "error", err)
	}
}

// transitionLocked is the one path a job's state changes through. It
// sets the state and fires the change signal (setLocked) and stamps at
// as the job's start time when it starts running, its finish time
// otherwise (a zero at keeps the stamp the job has). For every state
// but running — which recovery treats like queued — it then appends
// the job's index record and counts event in slimcodemld_jobs_total.
// A non-empty msg is logged with the job id and attrs, as a warning
// for a failed job. Callers hold job.mu (or own the job exclusively
// during recovery).
func (s *Server) transitionLocked(job *Job, state string, at time.Time, event, msg string, attrs ...any) {
	job.setLocked(state, job.done, job.failed)
	if state == StateRunning {
		job.started = at
	} else {
		if !at.IsZero() {
			job.finished = at
		}
		s.indexPutLocked(job)
		s.met.jobEvents.With(event).Inc()
	}
	if msg == "" {
		return
	}
	attrs = append([]any{"job", job.id}, attrs...)
	if state == StateFailed {
		s.log.Warn(msg, attrs...)
	} else {
		s.log.Info(msg, attrs...)
	}
}

// Cancel stops the job: a queued job is marked cancelled immediately, a
// running job has its context cancelled (no new gene starts; in-flight
// genes drain and the checkpoint stays consistent). Finished jobs
// return an error.
func (s *Server) Cancel(id string) error {
	job, ok := s.Job(id)
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownJob, id)
	}
	job.mu.Lock()
	switch job.state {
	case StateQueued:
		job.cancelled = true
		s.transitionLocked(job, StateCancelled, time.Now(), eventCancelled, "queued job cancelled")
		job.mu.Unlock()
		// Outside job.mu: the scheduler takes its own lock, and unlike
		// the old channel queue the slot frees immediately instead of
		// being skipped at dispatch time.
		s.sched.remove(job)
		return nil
	case StateRunning:
		job.cancelled = true
		job.cancel()
		job.mu.Unlock()
		return nil
	}
	state := job.state
	job.mu.Unlock()
	return fmt.Errorf("serve: job %s already %s", id, state)
}

// Shutdown stops the service gracefully: intake closes, running jobs
// are cancelled at their next gene boundary (their ledgers already
// hold every delivered result), still-queued jobs are marked
// interrupted, and the shared pool is released. Interrupted and
// still-running work resumes when a new server is pointed at the same
// data directory. The context bounds how long to wait for in-flight
// genes to drain.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	jobs := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	s.mu.Unlock()
	s.log.Info("shutting down; cancelling running jobs at the next gene boundary",
		"jobs", len(jobs))

	close(s.quit)
	s.sched.close()
	for _, j := range jobs {
		j.mu.Lock()
		if j.cancel != nil {
			j.cancel()
		}
		j.mu.Unlock()
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		return fmt.Errorf("serve: shutdown: %w", ctx.Err())
	}
	// Runners are gone; mark whatever never ran as interrupted.
	for _, job := range s.sched.drain() {
		job.mu.Lock()
		if job.state == StateQueued {
			s.transitionLocked(job, StateInterrupted, time.Now(), eventInterrupted, msgInterrupted)
		}
		job.mu.Unlock()
	}
	if err := s.idx.Close(); err != nil {
		s.log.Warn("job index close failed", "error", err)
	}
	s.pool.Close()
	return nil
}

// msgInterrupted logs a queued job that shutdown kept from running.
const msgInterrupted = "queued job interrupted by shutdown; resumes on restart"

// runner executes dispatched jobs until shutdown. The scheduler
// applies the fair-share policy; dispatch returns nil once closed.
func (s *Server) runner() {
	defer s.wg.Done()
	for {
		job := s.sched.dispatch()
		if job == nil {
			return
		}
		s.runJob(job)
		s.sched.release(job.tenant)
	}
}

// runJob drives one job through the checkpointed stream.
func (s *Server) runJob(job *Job) {
	// The shutdown check and the cancel registration happen under one
	// s.mu critical section: Shutdown sets closed and then cancels
	// every registered job under the same lock order (s.mu → job.mu),
	// so a job either sees closed here or has its cancel visible to
	// Shutdown — it can never start uncancellable mid-shutdown.
	s.mu.Lock()
	job.mu.Lock()
	if job.state != StateQueued { // cancelled while queued
		job.mu.Unlock()
		s.mu.Unlock()
		return
	}
	if s.closed {
		s.transitionLocked(job, StateInterrupted, time.Now(), eventInterrupted, msgInterrupted)
		job.mu.Unlock()
		s.mu.Unlock()
		return
	}
	ctx, cancel := context.WithCancel(context.Background())
	job.cancel = cancel
	s.transitionLocked(job, StateRunning, time.Now(), "", "job started", "genes", job.total)
	job.mu.Unlock()
	s.mu.Unlock()
	defer cancel()
	s.met.activeJobs.Inc()
	defer s.met.activeJobs.Dec()

	sum, err := checkpoint.Run(ctx, checkpoint.RunConfig{
		Entries: job.entries,
		Format:  s.cfg.Format,
		OutPath: job.outPath,
		Opts:    job.opts,
		OnStart: func(completed, failed int) {
			job.mu.Lock()
			job.setLocked(job.state, completed, failed)
			job.mu.Unlock()
		},
		// OnResult runs after the row is durable, so a follower woken
		// here always finds the complete line on disk.
		OnResult: func(r core.GeneResult) {
			job.mu.Lock()
			failed := job.failed
			if r.Err != nil {
				failed++
			}
			job.setLocked(job.state, job.done+1, failed)
			job.mu.Unlock()
		},
	})

	job.mu.Lock()
	defer job.mu.Unlock()
	job.summary = sum
	job.cancel = nil
	var state string
	switch {
	case err == nil:
		state = StateDone
	case errors.Is(err, context.Canceled):
		if job.cancelled {
			state = StateCancelled
		} else {
			state = StateInterrupted
		}
	default:
		state = StateFailed
		job.errMsg = err.Error()
	}
	msg, attrs := "job finished", []any{"state", state, "done", job.done, "failed", job.failed}
	if sum != nil {
		attrs = append(attrs, "runtime_sec", sum.Runtime.Seconds())
	}
	if state == StateFailed {
		msg, attrs = "job failed", append(attrs, "error", job.errMsg)
	}
	// fsync-before-describe: checkpoint.Run has made the results and
	// ledger durable before the index record claims the job finished.
	// States double as event names.
	s.transitionLocked(job, state, time.Now(), state, msg, attrs...)
}

// newJob wires a job's paths and in-memory state (caller holds s.mu or
// is in recovery before runners start).
func (s *Server) newJob(id string, spec JobSpec, entries []manifest.Entry, opts core.StreamOptions) *Job {
	base := filepath.Join(s.cfg.DataDir, id)
	digest := ""
	if len(entries) > 0 {
		digest = manifest.Digest(entries)
	}
	return &Job{
		id: id, tenant: spec.Tenant, spec: spec, entries: entries, digest: digest, opts: opts,
		outPath:    base + ".jsonl",
		ledgerPath: checkpoint.LedgerPath(base + ".jsonl"),
		specPath:   base + ".job.json",
		state:      StateQueued,
		total:      len(entries),
		changed:    make(chan struct{}),
	}
}

// persistSpec writes the job spec beside its results so a restarted
// server can recover the job.
func (j *Job) persistSpec() error {
	data, err := json.MarshalIndent(j.spec, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(j.specPath, append(data, '\n'), 0o644)
}

// resolveSpec turns a spec into verified manifest entries and stream
// options bound to the server's shared pool and cache.
func (s *Server) resolveSpec(spec JobSpec) ([]manifest.Entry, core.StreamOptions, error) {
	var opts core.StreamOptions
	if (spec.ManifestPath == "") == (spec.Manifest == "") {
		return nil, opts, fmt.Errorf("serve: exactly one of manifest_path and manifest is required")
	}
	var entries []manifest.Entry
	var err error
	if spec.ManifestPath != "" {
		entries, err = manifest.Load(spec.ManifestPath)
	} else {
		entries, err = manifest.Parse(strings.NewReader(spec.Manifest), spec.BaseDir)
		if err == nil {
			err = manifest.Verify(entries)
		}
	}
	if err != nil {
		return nil, opts, err
	}
	engine, err := core.ParseEngineKind(spec.Engine)
	if err != nil {
		return nil, opts, err
	}
	freq, err := core.ParseFreqEstimator(spec.Freq)
	if err != nil {
		return nil, opts, err
	}
	opts = core.StreamOptions{
		BatchOptions: core.BatchOptions{
			Options: core.Options{
				Engine:        engine,
				Freq:          freq,
				MaxIterations: spec.MaxIter,
				Seed:          spec.Seed,
				M0Start:       spec.M0Start,
			},
			Concurrency:      spec.Concurrency,
			ShareFrequencies: spec.ShareFrequencies,
			// PoolWorkers is ignored: the stream runs on the shared
			// pool below.
		},
		Prefetch: spec.Prefetch,
		Pool:     s.pool,
		Decomps:  s.cache,
		Persist:  s.store, // nil without a cache dir
		// Every job's stream records its fit latencies and prefetch
		// occupancy into the daemon's registry (the per-gene series on
		// GET /metrics). Registration is idempotent, so concurrent jobs
		// share the same series.
		Metrics: s.met.reg,
	}
	if n := len(spec.Frequencies); n > 0 {
		if want := codon.Universal.NumStates(); n != want {
			return nil, opts, fmt.Errorf("serve: frequencies must carry %d weights (one per universal-code sense codon), got %d", want, n)
		}
		for i, v := range spec.Frequencies {
			if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
				return nil, opts, fmt.Errorf("serve: frequencies[%d] = %v is not a valid probability weight", i, v)
			}
		}
		opts.Options.Frequencies = spec.Frequencies
	}
	return entries, opts, nil
}

// recover rebuilds the job table on startup. The job index is the fast
// path: finished jobs (done, failed, cancelled) reload straight from
// their index records — no spec parse, no ledger revalidation — so a
// restart over millions of historical jobs is one file read. Only
// unfinished jobs (queued, running, interrupted) revalidate their
// checkpoint ledgers and requeue. A directory scan then reconciles the
// two views: spec files the index missed (a pre-index data directory,
// or a submission whose index record was the torn tail) take the old
// per-job revalidation path and are written into the index; index
// records whose files vanished are tombstoned.
func (s *Server) recover() ([]*Job, error) {
	idxPath := checkpoint.JobIndexPath(s.cfg.DataDir)
	idx, err := checkpoint.OpenJobIndex(idxPath, jobSeq)
	if err != nil {
		// Derived state: anything beyond the torn tail the index itself
		// drops means rebuild, not refuse.
		s.log.Warn("job index unreadable; rebuilding from a directory scan",
			"path", idxPath, "error", err)
		if rmErr := os.Remove(idxPath); rmErr != nil && !os.IsNotExist(rmErr) {
			return nil, fmt.Errorf("serve: %w", rmErr)
		}
		if idx, err = checkpoint.OpenJobIndex(idxPath, jobSeq); err != nil {
			return nil, err
		}
	}
	s.idx = idx

	des, err := os.ReadDir(s.cfg.DataDir)
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	specs := make(map[string]bool)
	for _, de := range des {
		if de.IsDir() || !strings.HasSuffix(de.Name(), ".job.json") {
			continue
		}
		id := strings.TrimSuffix(de.Name(), ".job.json")
		n, ok := jobSeq(id)
		if !ok {
			continue // not one of ours
		}
		if n > s.nextID {
			s.nextID = n
		}
		specs[id] = true
	}

	var requeue []*Job
	indexed := make(map[string]bool)
	fromIndex := 0
	for _, rec := range idx.Records() {
		indexed[rec.ID] = true
		if !specs[rec.ID] {
			// The job's files were removed behind the index's back (an
			// operator rm, a recreated data dir): gone is gone.
			if err := idx.Purge(rec.ID); err != nil {
				s.log.Warn("job index purge append failed", "job", rec.ID, "error", err)
			}
			continue
		}
		switch rec.State {
		case StateDone, StateFailed, StateCancelled:
			s.jobs[rec.ID] = s.shellJob(rec)
			s.order = append(s.order, rec.ID)
			fromIndex++
		default:
			// queued / running / interrupted: the checkpoint ledger is
			// the authority on progress; revalidate and requeue.
			if job, resume := s.revalidate(rec.ID); resume {
				requeue = append(requeue, job)
			}
		}
	}
	if fromIndex > 0 {
		s.log.Info("recovered finished jobs from the index", "jobs", fromIndex)
	}

	// Reconciliation: specs the index does not know.
	var orphans []string
	for id := range specs {
		if !indexed[id] {
			orphans = append(orphans, id)
		}
	}
	sort.Strings(orphans) // ids are zero-padded: lexical = submission order
	for _, id := range orphans {
		if job, resume := s.revalidate(id); resume {
			requeue = append(requeue, job)
		}
	}
	sort.Strings(s.order)
	if n := idx.MaxSeq(); n > s.nextID {
		s.nextID = n
	}
	return requeue, nil
}

// shellJob rebuilds a finished job from its index record alone — the
// in-memory view a status or results request needs, without touching
// the job's spec or ledger.
func (s *Server) shellJob(rec checkpoint.JobIndexRecord) *Job {
	job := s.newJob(rec.ID, JobSpec{Tenant: rec.Tenant}, nil, core.StreamOptions{})
	job.total = rec.Total
	job.setLocked(job.state, rec.Done, rec.Failed)
	job.errMsg = rec.Error
	job.digest = rec.Digest
	if rec.SubmittedUnixNano != 0 {
		job.submitted = time.Unix(0, rec.SubmittedUnixNano)
	}
	var finished time.Time
	if rec.FinishedUnixNano != 0 {
		finished = time.Unix(0, rec.FinishedUnixNano)
	}
	// The rebuilt job describes exactly rec, so the index, which already
	// holds rec, appends nothing.
	s.transitionLocked(job, rec.State, finished, eventRecovered, "")
	return job
}

// revalidate runs the directory-scan recovery path for one job id and
// lists the result, refreshing its index record. Reports whether the
// job needs requeueing.
func (s *Server) revalidate(id string) (*Job, bool) {
	job, finished, err := s.recoverJob(id)
	s.jobs[id] = job
	s.order = append(s.order, id)
	// Each transition migrates / refreshes the job's index record.
	switch {
	case err != nil:
		job.errMsg = fmt.Sprintf("recovery: %v", err)
		s.transitionLocked(job, StateFailed, time.Now(), eventRecoveryFailed,
			"job revalidation refused; marked failed", "reason", err)
	case finished.IsZero():
		s.transitionLocked(job, StateQueued, time.Time{}, eventRequeued,
			"recovered unfinished job; requeued to resume", "genes", job.total, "done", job.done, "failed", job.failed)
		return job, true
	default:
		s.transitionLocked(job, StateDone, finished, eventRecovered,
			"recovered finished job", "state", StateDone)
	}
	return job, false
}

// recoverJob rebuilds one persisted job with its checkpointed progress.
// A job whose ledger covers every gene reports when it finished; a
// zero finish time means it still needs to run. Always returns a job
// (possibly a shell holding only the id) so failures stay visible.
func (s *Server) recoverJob(id string) (*Job, time.Time, error) {
	shell := s.newJob(id, JobSpec{}, nil, core.StreamOptions{})
	data, err := os.ReadFile(shell.specPath)
	if err != nil {
		return shell, time.Time{}, err
	}
	var spec JobSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return shell, time.Time{}, err
	}
	entries, opts, err := s.resolveSpec(spec)
	if err != nil {
		return shell, time.Time{}, err
	}
	job := s.newJob(id, spec, entries, opts)
	job.submitted = time.Now()
	if info, err := os.Stat(job.specPath); err == nil {
		// The spec file's mtime is when the job was really submitted —
		// stamping time.Now() would reset history on every restart.
		job.submitted = info.ModTime()
	}
	if _, err := os.Stat(job.ledgerPath); err != nil {
		return job, time.Time{}, nil // never started: run fresh
	}
	ledger, err := checkpoint.Open(job.ledgerPath)
	if err != nil {
		return job, time.Time{}, err
	}
	plan, err := ledger.Plan(entries, checkpoint.RunFingerprint(opts, s.cfg.Format))
	ledger.Close()
	if err != nil {
		return job, time.Time{}, err
	}
	job.setLocked(job.state, plan.Skip, plan.Failed)
	if plan.Skip < len(entries) {
		return job, time.Time{}, nil
	}
	finished := time.Now()
	if info, err := os.Stat(job.ledgerPath); err == nil {
		// Likewise, the ledger's last write is when the job actually
		// finished: keeps -retain aging across daemon restarts instead
		// of resetting the clock every start.
		finished = info.ModTime()
	}
	return job, finished, nil
}
