// Package fanout is the fifth execution tier: a coordinator that
// scales one manifest across several slimcodemld daemons. It slices
// the manifest into deterministic contiguous shards (manifest.Shard),
// keeps the shards in a coordinator-side queue from which daemons pull
// work as they finish, streams each submitted job's results over the
// daemons' HTTP API (serve.Client follow mode), and concatenates the
// per-shard JSONL results — in shard order — into a single output file
// that is byte-identical to a standalone single-process run of the
// same manifest.
//
// # The shard queue
//
// Shards are deliberately cut smaller than the fleet (default four per
// endpoint): each endpoint holds at most InFlight submitted jobs, and
// every remaining shard waits in the coordinator's queue for the next
// endpoint with free capacity. A fast daemon therefore pulls more
// shards than a slow one, and a dead daemon's unfinished shards simply
// flow back into the queue — the slowest daemon gates only its own
// current shard, not a statically pinned fraction of the manifest.
//
// # Event-driven scheduling
//
// The coordinator is one goroutine running scheduling rounds. Every
// submitted shard has a follower goroutine copying its job's follow
// stream into the shard's spool; when the stream ends, the follower
// reports on one coordinator-wide event channel, and one status call
// classifies the end (done, failed, or cut early). A round that changed
// anything — a shard's phase, an endpoint's health — is followed at
// once by another; otherwise the coordinator sleeps until a follower
// reports, the earliest deadline falls due (a dead endpoint's re-probe,
// the fleet-dead grace, a shard's retry) or the run is cancelled. No
// timer paces the happy path. A shard every endpoint refused with 503,
// or whose stream ended before its job did, waits retryDelay before the
// next attempt, so nothing retries in a hot loop.
//
// # Endpoint health and re-probe
//
// An endpoint whose transport fails is marked dead and its submitted
// shards return to the queue, but death is not forever: dead endpoints
// are health-probed on an exponential backoff (Reprobe, doubling up to
// ReprobeMax), and an endpoint that answers again is re-admitted and
// resumes pulling shards. Only when the whole fleet stays dead past a
// grace period (or re-probing is disabled) does the run fail.
// Cancellation is classified before death: a context error from an
// in-flight client call means the run was interrupted, never that the
// endpoint died, so Ctrl-C burns no resubmission budget and exits at a
// ledger-consistent point.
//
// # Shared frequencies at tier 5
//
// A ShareFrequencies run pools codon counts over the WHOLE manifest in
// a coordinator pre-pass (the same bit-exact pooling a standalone
// -sharefreq run performs), records the resulting π in the shard
// ledger, and pins every shard's job to that vector via the wire
// spec's Frequencies field — so the merged output is byte-identical to
// the standalone -sharefreq run, and a resumed coordinator replays the
// recorded π instead of re-pooling.
//
// # Invariants
//
//   - Deterministic merge: shard results are appended to the output
//     strictly in shard order, no matter which daemon finishes first.
//     Because manifest.Shard partitions the rows contiguously and each
//     daemon's checkpointed stream writes the deterministic JSONL
//     projection in row order, the concatenation equals the rows a
//     single `slimcodeml -manifest -resume` run writes, byte for byte.
//   - Durable coordination: every shard submission (which daemon, which
//     job id) and every appended shard (output offset) is recorded in a
//     fsynced shard ledger (checkpoint.ShardLedger) beside the output —
//     shard data reaches disk before the ledger line that describes it.
//     A killed coordinator rerun with the identical configuration skips
//     the appended shards, adopts still-running jobs on their daemons,
//     and requeues the rest; resuming under a changed manifest, shard
//     count or options is refused.
//   - Failure containment: a daemon that stops answering is excluded
//     until a re-probe re-admits it, and its unfinished shards flow to
//     the remaining daemons (a resubmitted job re-runs the shard from
//     scratch — per-daemon checkpoints do not travel). A shard is
//     resubmitted at most MaxResubmits times before the run fails.
//     Each shard's results stream into a local spool file while its
//     job runs, so a daemon that dies after the job is done — or
//     purges the job via its retention sweep — while earlier shards
//     are still running costs nothing.
//   - Job-level failures surface: a per-gene error rides inside the
//     results as an error row (and is counted, not fatal), but a job
//     the daemon reports as failed is retried like a dead daemon —
//     capped, so a deterministic failure stops the run with the
//     daemon's message instead of looping.
package fanout

import (
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"log/slog"
	"os"
	"strings"
	"sync"
	"time"

	"repro/internal/align"
	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/manifest"
	"repro/internal/obs"
	"repro/internal/serve"
)

// Tuning defaults: shards cut per endpoint when Config.Shards is zero,
// the dead-endpoint re-probe backoff range, the health-probe timeout,
// how many ReprobeMax periods the whole fleet may stay dead before the
// run gives up (re-probing makes a transient full-fleet outage
// survivable, but a wrong -endpoints list must still fail, not hang),
// and the pause before a refused submission or an early-ended follow
// stream is retried.
const (
	defaultShardsPerEndpoint = 4
	defaultReprobe           = time.Second
	defaultReprobeMax        = 30 * time.Second
	probeTimeout             = 2 * time.Second
	fleetDeadGraceFactor     = 4
	retryDelay               = 500 * time.Millisecond
)

// Config describes one fan-out run.
type Config struct {
	// Entries is the full manifest (all rows, before sharding).
	Entries []manifest.Entry
	// Endpoints are the daemon base URLs (e.g. "http://host:8710";
	// bare host:port is accepted). At least one is required.
	Endpoints []string
	// Shards is how many contiguous row ranges to split the manifest
	// into (0 = four per endpoint). Shards form a queue: more, smaller
	// shards rebalance better around slow or dying daemons, at the cost
	// of more per-job overhead.
	Shards int
	// InFlight caps the jobs submitted to one endpoint at a time
	// (default 1). Shards beyond the fleet's total capacity wait in the
	// coordinator's queue and go to the next endpoint that frees up.
	InFlight int
	// Reprobe is the initial backoff before a dead endpoint is
	// health-probed for re-admission; each failed probe doubles it up
	// to ReprobeMax. Zero means the defaults (1 s up to 30 s); a
	// negative Reprobe disables re-probing entirely — a dead endpoint
	// then stays excluded for the rest of the run.
	Reprobe    time.Duration
	ReprobeMax time.Duration
	// OutPath is the merged JSONL output; the shard ledger lives beside
	// it (checkpoint.ShardLedgerPath).
	OutPath string
	// Spec carries the result-affecting job options. Its manifest
	// fields (Manifest, ManifestPath, BaseDir) must be empty — the
	// coordinator fills in each shard's rows. ShareFrequencies makes
	// the coordinator pool codon counts over the whole manifest once
	// and pin every shard's job to the pooled π (Spec.Frequencies
	// itself must be empty: the coordinator derives the vector).
	Spec serve.JobSpec
	// CountCache, when set, names a sidecar codon-count cache file the
	// ShareFrequencies pre-pass consults and updates (manifest.CountCache).
	CountCache string
	// MaxResubmits caps how often one shard may be resubmitted after
	// daemon failures before the run fails. Zero means exactly that —
	// fail on the first lost shard, no resubmission; a negative value
	// selects the default of 3.
	MaxResubmits int
	// Purge, when set, deletes each shard's job (results, ledger and
	// spec files) from its daemon after the shard is safely appended to
	// the merged output, so a fan-out run leaves no data behind.
	Purge bool
	// Token is the bearer token sent with every daemon request —
	// required against daemons running with tenancy on, ignored by
	// daemons without it.
	Token string

	// Log, when set, receives the run's lifecycle transitions (endpoint
	// deaths and re-admissions, submissions, resubmissions, merged
	// shards) as structured events with shard/endpoint/job attributes —
	// the coordinator analogue of serve.Config.Log. Nil discards them.
	Log *slog.Logger
	// Metrics, when set, receives the coordinator's shard-phase and
	// endpoint-health gauges, resubmission counters and status-call
	// latency histogram — what slimcodemlx -metrics-addr exposes. Nil
	// costs nothing.
	Metrics *obs.Registry
	// OnSubmitted and OnAppended, when set, observe shard lifecycle
	// transitions — progress displays and tests hook in here.
	OnSubmitted func(shard int, endpoint, jobID string)
	OnAppended  func(shard int, offset int64)
}

// Summary reports one fan-out run.
type Summary struct {
	Genes   int // manifest rows covered
	Shards  int
	Skipped int // shards already appended by a previous (resumed) run
	// Adopted counts shards whose in-flight daemon job a resumed
	// coordinator picked up instead of resubmitting.
	Adopted   int
	Resubmits int
	// Readmissions counts dead endpoints brought back by a successful
	// re-probe.
	Readmissions int
	Runtime      time.Duration
}

// Fingerprint canonicalizes the result-affecting fields of a job spec
// — the fan-out analogue of checkpoint.OptionsFingerprint. Scheduling
// knobs (Concurrency, Prefetch) are deliberately absent: daemons
// guarantee bit-identical results across them, so a run may resume
// with different parallelism. ShareFrequencies is fingerprinted as the
// coordinator-level intent; the derived π needs no component of its
// own because it is a pure function of the manifest digest and the
// frequency estimator, both already covered.
func Fingerprint(spec serve.JobSpec) string {
	fp := fmt.Sprintf("engine=%s freq=%s maxiter=%d seed=%d m0start=%t sharefreq=%t",
		spec.Engine, spec.Freq, spec.MaxIter, spec.Seed, spec.M0Start, spec.ShareFrequencies)
	// Warm-started runs relax the determinism contract (daemons may
	// seed optimizers from cached MLEs), so their shard ledgers must
	// never be resumed by — or resume — a cold run. Appended only when
	// set, keeping every existing ledger's fingerprint unchanged.
	if spec.WarmStart {
		fp += " warmstart=true"
	}
	return fp
}

// shard phases. A shard advances pending → submitted → jobDone, and is
// retired when its results are appended (coordinator's next counter).
const (
	shardPending = iota
	shardSubmitted
	shardJobDone
)

// shardState is the coordinator's view of one shard.
type shardState struct {
	entries   []manifest.Entry
	text      string // serialized manifest rows, submitted inline
	digest    string // manifest.Digest of the shard's rows
	phase     int
	endpoint  int // index into coord.eps while submitted
	jobID     string
	resubmits int
	// spool is the local file the shard's results stream into while its
	// job runs — complete before its in-order merge turn — so a daemon
	// that purges or loses a finished job (retention sweep, crash) after
	// this point costs nothing.
	spool string
	// follow is the shard's live result stream, when one is open.
	follow *followState
	// retryAt, when set, holds the shard back: its next submission
	// after a 503, or its next follow after a stream that ended before
	// the job did.
	retryAt time.Time
}

// followState is one open follow stream: a goroutine copying the
// daemon's chunked JSONL into the shard's spool as rows land. gen tells
// its report apart from those of followers since stopped.
type followState struct {
	cancel context.CancelFunc
	gen    int
}

// followEnd is a follower's report on the coordinator's event channel:
// which shard and follower, how many rows the stream carried, and why
// it ended (nil: the daemon closed the stream).
type followEnd struct {
	shard, gen int
	lines      int
	err        error
}

// errNoFollow is a follower's report that the daemon answered without
// the follow capability header — a build too old for this coordinator.
var errNoFollow = errors.New("daemon does not stream results")

// endpointState is one daemon, its health, and — while dead — its
// re-probe schedule.
type endpointState struct {
	url    string
	client *serve.Client
	alive  bool
	// probeAt is when the next re-probe is due; backoff is the current
	// backoff, doubling after each failed probe up to Config.ReprobeMax.
	probeAt time.Time
	backoff time.Duration
}

type coord struct {
	cfg    Config
	eps    []*endpointState
	shards []*shardState
	ledger *checkpoint.ShardLedger
	out    *os.File
	offset int64
	next   int // next shard to append
	// pi is the pooled shared-frequency vector of a ShareFrequencies
	// run, pinned into every shard's job spec.
	pi []float64
	// allDeadSince is when the last alive endpoint died (zero while any
	// endpoint is alive) — the clock behind the fleet-dead grace period.
	allDeadSince time.Time
	sum          Summary
	met          *coordMetrics
	log          *slog.Logger

	// events carries every follower's report; gen numbers followers.
	events    chan followEnd
	gen       int
	followers sync.WaitGroup
	// changes counts shard phase moves, merges and endpoint health
	// flips: a round that made any is followed at once by another.
	changes int
	// wakeAt is the earliest deadline the current round left pending
	// (zero: none) — how long the coordinator may sleep.
	wakeAt time.Time
}

// Run executes (or resumes) a fan-out run and blocks until the merged
// output is complete. Cancelling ctx stops the coordinator at a
// ledger-consistent point — submitted jobs keep running on their
// daemons, and rerunning the identical configuration adopts them.
func Run(ctx context.Context, cfg Config) (*Summary, error) {
	start := time.Now()
	ctx, cancel := context.WithCancel(ctx)
	c, err := newCoord(ctx, cfg)
	if err != nil {
		cancel()
		return nil, err
	}
	defer c.ledger.Close()
	defer c.out.Close()
	// Follower goroutines die with the run, success or failure.
	defer c.followers.Wait()
	defer cancel()

	if err := c.adoptAssignments(ctx); err != nil {
		return nil, err
	}
	c.met.update(c)
	for c.next < len(c.shards) {
		if err := ctx.Err(); err != nil {
			return nil, c.interrupted(err)
		}
		changes := c.changes
		if err := c.round(ctx); err != nil {
			return nil, err
		}
		// One consistent gauge refresh per scheduling round, after every
		// phase transition this round made.
		c.met.update(c)
		if c.next < len(c.shards) && c.changes == changes {
			if err := c.wait(ctx); err != nil {
				return nil, err
			}
		}
	}
	c.sum.Runtime = time.Since(start)
	return &c.sum, nil
}

// round is one scheduling pass: re-probe the dead endpoints that are
// due, tend the submitted shards, submit queued ones, and merge
// finished ones in order.
func (c *coord) round(ctx context.Context) error {
	c.wakeAt = time.Time{}
	if err := c.reprobeDead(ctx); err != nil {
		return err
	}
	if err := c.tendSubmitted(ctx); err != nil {
		return err
	}
	if err := c.submitPending(ctx); err != nil {
		return err
	}
	return c.appendReady(ctx)
}

// wait sleeps after a round that changed nothing, until a follower
// reports (resolved here — followers block until then), the earliest
// pending deadline falls due, or ctx is done.
func (c *coord) wait(ctx context.Context) error {
	var due <-chan time.Time
	if !c.wakeAt.IsZero() {
		t := time.NewTimer(time.Until(c.wakeAt))
		defer t.Stop()
		due = t.C
	}
	select {
	case ev := <-c.events:
		return c.followEnded(ctx, ev)
	case <-due:
	case <-ctx.Done():
	}
	return nil
}

// wakeBy makes the coordinator run a round no later than t. Whatever
// arms a deadline, or skips work because a deadline has not come yet,
// registers it here.
func (c *coord) wakeBy(t time.Time) {
	if c.wakeAt.IsZero() || t.Before(c.wakeAt) {
		c.wakeAt = t
	}
}

// setPhase moves a shard to a new phase and counts the change.
func (c *coord) setPhase(st *shardState, phase int) {
	st.phase = phase
	c.changes++
}

// retryLater holds a shard back for retryDelay.
func (c *coord) retryLater(st *shardState) {
	st.retryAt = time.Now().Add(retryDelay)
	c.wakeBy(st.retryAt)
}

// interrupted wraps a cancellation into the resume-instruction error
// every clean interruption exits with.
func (c *coord) interrupted(cause error) error {
	return fmt.Errorf("fanout: interrupted with %d/%d shards merged — rerun the identical command to resume: %w", c.next, len(c.shards), cause)
}

// cancelled classifies an error from an in-flight client call:
// cancellation — the run context is done, or the call itself surfaced
// a context error (SIGINT mid-call, a caller-imposed deadline) — is a
// clean interruption, never endpoint death, and comes back wrapped
// with resume instructions. nil means err is a genuine transport or
// API failure the caller should handle as such.
func (c *coord) cancelled(ctx context.Context, err error) error {
	if cerr := ctx.Err(); cerr != nil {
		return c.interrupted(cerr)
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return c.interrupted(err)
	}
	return nil
}

// newCoord validates the configuration, opens (or creates) the shard
// ledger, positions the merged output at the resume offset, and — for
// a ShareFrequencies run — derives or replays the shared π.
func newCoord(ctx context.Context, cfg Config) (*coord, error) {
	if len(cfg.Entries) == 0 {
		return nil, fmt.Errorf("fanout: no manifest rows")
	}
	if len(cfg.Endpoints) == 0 {
		return nil, fmt.Errorf("fanout: no daemon endpoints")
	}
	if cfg.OutPath == "" {
		return nil, fmt.Errorf("fanout: an output path is required")
	}
	if cfg.Spec.Manifest != "" || cfg.Spec.ManifestPath != "" || cfg.Spec.BaseDir != "" {
		return nil, fmt.Errorf("fanout: the job spec's manifest fields are filled per shard; leave them empty")
	}
	if len(cfg.Spec.Frequencies) > 0 {
		return nil, fmt.Errorf("fanout: the coordinator derives the shared frequency vector itself; leave Spec.Frequencies empty (set Spec.ShareFrequencies)")
	}
	if cfg.Shards == 0 {
		cfg.Shards = defaultShardsPerEndpoint * len(cfg.Endpoints)
	}
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("fanout: shard count %d < 1", cfg.Shards)
	}
	if cfg.InFlight <= 0 {
		cfg.InFlight = 1
	}
	if cfg.Reprobe == 0 {
		cfg.Reprobe = defaultReprobe
	}
	if cfg.ReprobeMax <= 0 {
		cfg.ReprobeMax = defaultReprobeMax
	}
	if cfg.ReprobeMax < cfg.Reprobe {
		cfg.ReprobeMax = cfg.Reprobe
	}
	if cfg.MaxResubmits < 0 {
		cfg.MaxResubmits = 3
	}

	// Daemons resolve inline manifest rows on their own filesystem, so
	// every path must be absolute — a relative path would resolve
	// against the daemon's working directory, not ours.
	entries := make([]manifest.Entry, len(cfg.Entries))
	var err error
	for i, e := range cfg.Entries {
		if entries[i], err = e.Abs(); err != nil {
			return nil, err
		}
	}
	cfg.Entries = entries

	c := &coord{cfg: cfg, met: newCoordMetrics(cfg.Metrics), log: cfg.Log, events: make(chan followEnd)}
	if c.log == nil {
		c.log = obs.NopLogger()
	}
	for _, url := range cfg.Endpoints {
		cl := serve.NewClient(url)
		cl.Token = cfg.Token
		c.eps = append(c.eps, &endpointState{url: url, client: cl, alive: true})
	}
	for i := 0; i < cfg.Shards; i++ {
		rows, err := manifest.Shard(entries, i+1, cfg.Shards)
		if err != nil {
			return nil, err
		}
		st := &shardState{entries: rows, spool: fmt.Sprintf("%s.shard%d.tmp", cfg.OutPath, i)}
		if len(rows) > 0 {
			st.digest = manifest.Digest(rows)
			var b strings.Builder
			if err := manifest.Write(&b, rows); err != nil {
				return nil, err
			}
			st.text = b.String()
		}
		c.shards = append(c.shards, st)
	}
	c.sum.Genes = len(entries)
	c.sum.Shards = cfg.Shards

	fp := Fingerprint(cfg.Spec)
	ledgerPath := checkpoint.ShardLedgerPath(cfg.OutPath)
	var plan checkpoint.ShardPlan
	if _, statErr := os.Stat(ledgerPath); statErr == nil {
		c.ledger, err = checkpoint.OpenShardLedger(ledgerPath)
		if err != nil {
			return nil, err
		}
		plan, err = c.ledger.PlanShards(entries, cfg.Shards, fp)
		if err != nil {
			c.ledger.Close()
			return nil, err
		}
	} else if !errors.Is(statErr, fs.ErrNotExist) {
		// A transient stat failure must not truncate a resumable ledger.
		return nil, fmt.Errorf("fanout: %s: %w", ledgerPath, statErr)
	} else {
		c.ledger, err = checkpoint.CreateShardLedger(ledgerPath, checkpoint.ShardHeader{
			ManifestDigest: manifest.Digest(entries),
			Genes:          len(entries),
			Shards:         cfg.Shards,
			Options:        fp,
		})
		if err != nil {
			return nil, err
		}
		plan.Assignments = map[int]checkpoint.ShardSubmit{}
	}
	c.next = plan.Done
	c.offset = plan.Offset
	c.sum.Skipped = plan.Done

	// OpenOutput truncates any tail a crash wrote past the last
	// ledgered shard and positions appends at the offset.
	c.out, err = checkpoint.OpenOutput(cfg.OutPath, plan.Offset)
	if err != nil {
		c.ledger.Close()
		return nil, err
	}

	// A ShareFrequencies run pins one whole-manifest π into every
	// shard's job. The pre-pass pools codon counts in manifest order —
	// the same bit-exact pooling a standalone -sharefreq run performs —
	// and the vector is recorded in the shard ledger before any shard
	// is submitted with it, so a resumed coordinator replays rather
	// than recomputes it.
	if cfg.Spec.ShareFrequencies {
		c.pi = plan.Frequencies
		if c.pi == nil {
			c.pi, err = c.poolFrequencies(ctx, entries)
			if err == nil {
				err = c.ledger.AppendFrequencies(c.pi)
			}
			if err != nil {
				c.ledger.Close()
				c.out.Close()
				return nil, err
			}
		}
	}

	// Spool files are only trusted within one coordinator incarnation
	// (a kill can tear a download mid-copy); stale ones are refetched.
	for _, st := range c.shards {
		os.Remove(st.spool)
	}

	// Re-attach recorded assignments for the shards still to merge;
	// adoptAssignments probes them before the main loop.
	for i := c.next; i < len(c.shards); i++ {
		if sub, ok := plan.Assignments[i]; ok {
			if ep := c.endpointIndex(sub.Endpoint); ep >= 0 {
				c.shards[i].phase = shardSubmitted
				c.shards[i].endpoint = ep
				c.shards[i].jobID = sub.JobID
			}
			// An endpoint no longer configured is simply not adopted;
			// the shard is resubmitted to the current fleet.
		}
	}
	return c, nil
}

// poolFrequencies runs the coordinator-side shared-frequency pre-pass
// over the whole manifest.
func (c *coord) poolFrequencies(ctx context.Context, entries []manifest.Entry) ([]float64, error) {
	freq, err := core.ParseFreqEstimator(c.cfg.Spec.Freq)
	if err != nil {
		return nil, err
	}
	src := core.NewManifestSource(entries, align.FormatAuto)
	if c.cfg.CountCache != "" {
		src.WithCountCache(manifest.OpenCountCache(c.cfg.CountCache))
	}
	c.log.Info("pooling codon counts for the shared frequency vector", "genes", len(entries))
	return core.SharedFrequencies(ctx, src, core.Options{Freq: freq})
}

// shardSpec builds the job spec for one shard. A ShareFrequencies run
// sends each daemon a plain fixed-π job: the pooling already happened
// coordinator-side, so the per-job pre-pass flag is cleared and the
// pooled vector rides the wire instead.
func (c *coord) shardSpec(st *shardState) serve.JobSpec {
	spec := c.cfg.Spec
	spec.Manifest = st.text
	if spec.ShareFrequencies {
		spec.ShareFrequencies = false
		spec.Frequencies = c.pi
	}
	return spec
}

// endpointIndex maps a recorded endpoint URL back to its config slot.
func (c *coord) endpointIndex(url string) int {
	for i, ep := range c.eps {
		if ep.url == url {
			return i
		}
	}
	return -1
}

// aliveCount returns how many endpoints are currently in play.
func (c *coord) aliveCount() int {
	n := 0
	for _, ep := range c.eps {
		if ep.alive {
			n++
		}
	}
	return n
}

// inflight counts the shards currently submitted to one endpoint — the
// queue's per-endpoint capacity gauge. Derived from shard state rather
// than counted incrementally so no failure path can leak a slot.
func (c *coord) inflight(ep int) int {
	n := 0
	for i := c.next; i < len(c.shards); i++ {
		if st := c.shards[i]; st.phase == shardSubmitted && st.endpoint == ep {
			n++
		}
	}
	return n
}

// markDead excludes an endpoint and schedules its first re-probe.
func (c *coord) markDead(idx int, err error) {
	ep := c.eps[idx]
	if !ep.alive {
		return
	}
	ep.alive = false
	c.changes++
	c.met.epEvents.With("death").Inc()
	c.log.Warn("endpoint stopped answering; excluded",
		"endpoint", ep.url, "error", err, "reprobe", c.cfg.Reprobe >= 0)
	if c.cfg.Reprobe >= 0 {
		ep.backoff = c.cfg.Reprobe
		ep.probeAt = time.Now().Add(ep.backoff)
		c.wakeBy(ep.probeAt)
	}
	if c.aliveCount() == 0 {
		c.allDeadSince = time.Now()
	}
}

// reprobeDead health-probes every dead endpoint whose backoff has
// elapsed. An endpoint that answers — even with an API-level error,
// which proves a live server — is re-admitted and starts pulling
// shards again; a failed probe doubles the backoff up to ReprobeMax.
func (c *coord) reprobeDead(ctx context.Context) error {
	if c.cfg.Reprobe < 0 {
		return nil
	}
	now := time.Now()
	for _, ep := range c.eps {
		if ep.alive {
			continue
		}
		if now.Before(ep.probeAt) {
			c.wakeBy(ep.probeAt)
			continue
		}
		pctx, cancel := context.WithTimeout(ctx, probeTimeout)
		_, err := ep.client.Health(pctx)
		cancel()
		if err == nil || isAPIError(err) {
			ep.alive = true
			ep.backoff = 0
			c.allDeadSince = time.Time{}
			c.sum.Readmissions++
			c.changes++
			c.met.epEvents.With("readmission").Inc()
			c.log.Info("endpoint answering again; re-admitted", "endpoint", ep.url)
			continue
		}
		// The probe's own deadline is not a run cancellation — only the
		// run context says that.
		if cerr := ctx.Err(); cerr != nil {
			return c.interrupted(cerr)
		}
		ep.backoff *= 2
		if ep.backoff > c.cfg.ReprobeMax {
			ep.backoff = c.cfg.ReprobeMax
		}
		ep.probeAt = now.Add(ep.backoff)
		c.wakeBy(ep.probeAt)
	}
	return nil
}

// submitPending walks the shard queue and submits each pending
// non-empty shard to an alive endpoint with free capacity, scanning
// round-robin from the shard's own index so an idle fleet spreads
// evenly, and starts the shard's follower. Shards beyond the fleet's
// capacity stay queued until a slot frees; one every endpoint refused
// with 503 waits retryDelay. With the whole fleet dead the run waits out
// the re-probe grace period, then fails.
func (c *coord) submitPending(ctx context.Context) error {
	now := time.Now()
	for i := c.next; i < len(c.shards); i++ {
		st := c.shards[i]
		if st.phase != shardPending || len(st.entries) == 0 {
			continue
		}
		if now.Before(st.retryAt) {
			c.wakeBy(st.retryAt)
			continue
		}
		if c.aliveCount() == 0 {
			if c.cfg.Reprobe < 0 {
				return fmt.Errorf("fanout: all %d endpoints are dead", len(c.eps))
			}
			grace := fleetDeadGraceFactor * c.cfg.ReprobeMax
			if time.Since(c.allDeadSince) > grace {
				return fmt.Errorf("fanout: all %d endpoints have stayed dead for over %s — rerun the identical command to resume once the fleet returns", len(c.eps), grace)
			}
			c.wakeBy(c.allDeadSince.Add(grace))
			return nil // wait for a re-probe to re-admit someone
		}
		refused, busy := false, false
		for off := 0; off < len(c.eps); off++ {
			idx := (i + off) % len(c.eps)
			ep := c.eps[idx]
			if !ep.alive {
				continue
			}
			if c.inflight(idx) >= c.cfg.InFlight {
				busy = true
				continue
			}
			status, err := ep.client.Submit(ctx, c.shardSpec(st))
			if err != nil {
				if cerr := c.cancelled(ctx, err); cerr != nil {
					return cerr
				}
				if serve.IsUnavailable(err) {
					refused = true
					continue // full queue or draining: try the next daemon
				}
				if !isAPIError(err) {
					c.markDead(idx, err)
					continue
				}
				// A 4xx is a spec problem every daemon will repeat.
				return fmt.Errorf("fanout: shard %d refused by %s: %w", i, ep.url, err)
			}
			c.setPhase(st, shardSubmitted)
			st.endpoint = idx
			st.jobID = status.ID
			if err := c.ledger.AppendSubmit(checkpoint.ShardSubmit{Shard: i, Endpoint: ep.url, JobID: status.ID}); err != nil {
				return err
			}
			c.startFollower(ctx, i)
			c.log.Info("shard submitted",
				"shard", i, "genes", len(st.entries), "endpoint", ep.url, "job", status.ID)
			if c.cfg.OnSubmitted != nil {
				c.cfg.OnSubmitted(i, ep.url, status.ID)
			}
			break
		}
		if refused && st.phase == shardPending {
			if busy {
				// A full endpoint takes the shard when one of its
				// streams ends; the refusers are asked again at the
				// retry pace.
				c.wakeBy(now.Add(retryDelay))
			} else {
				c.retryLater(st) // every endpoint answered 503
			}
		}
	}
	return nil
}

// tendSubmitted requeues the submitted shards whose endpoint died
// (another call saw the failure first) and opens a new follow stream
// for each one that lacks one once its retry delay has passed.
func (c *coord) tendSubmitted(ctx context.Context) error {
	now := time.Now()
	for i := c.next; i < len(c.shards); i++ {
		st := c.shards[i]
		if st.phase != shardSubmitted {
			continue
		}
		ep := c.eps[st.endpoint]
		switch {
		case !ep.alive:
			if err := c.demote(i, fmt.Sprintf("endpoint %s died", ep.url)); err != nil {
				return err
			}
		case st.follow != nil:
			// Stream live: rows are flowing into the spool.
		case now.Before(st.retryAt):
			c.wakeBy(st.retryAt)
		default:
			c.startFollower(ctx, i)
		}
	}
	return nil
}

// startFollower opens a follow-mode result stream for a submitted
// shard: a goroutine that copies the daemon's chunked JSONL into the
// shard's spool file as the daemon's checkpoint ledger lands each row,
// and reports on the event channel when the stream ends.
func (c *coord) startFollower(ctx context.Context, i int) {
	st := c.shards[i]
	fctx, cancel := context.WithCancel(ctx)
	c.gen++
	gen := c.gen
	st.follow = &followState{cancel: cancel, gen: gen}
	st.retryAt = time.Time{}
	c.met.follows.With("started").Inc()
	client, jobID, spool := c.eps[st.endpoint].client, st.jobID, st.spool
	c.followers.Add(1)
	go func() {
		defer c.followers.Done()
		lines, err := follow(fctx, client, jobID, spool)
		select {
		case c.events <- followEnd{shard: i, gen: gen, lines: lines, err: err}:
		case <-fctx.Done(): // stopped, or the run is over
		}
	}()
}

// follow streams one job's results into spool, returning the rows
// received. A daemon that answers without the follow capability header
// is reported as errNoFollow.
func follow(ctx context.Context, client *serve.Client, jobID, spool string) (int, error) {
	rc, followed, err := client.FollowResults(ctx, jobID, 0)
	if err != nil {
		return 0, err
	}
	defer rc.Close()
	if !followed {
		return 0, errNoFollow
	}
	f, err := os.Create(spool)
	if err != nil {
		return 0, err
	}
	return spoolCopy(f, rc)
}

// stopFollower cancels a shard's follower, if any; its report, should
// it still arrive, no longer matches and is dropped.
func (c *coord) stopFollower(st *shardState) {
	if st.follow != nil {
		st.follow.cancel()
		st.follow = nil
	}
}

// followEnded resolves one follower's report, dropping it when the
// follower has since been stopped.
func (c *coord) followEnded(ctx context.Context, ev followEnd) error {
	st := c.shards[ev.shard]
	if st.follow == nil || st.follow.gen != ev.gen {
		return nil
	}
	c.stopFollower(st)
	return c.finishFollow(ctx, ev.shard, ev)
}

// finishFollow resolves a completed follow stream. The stream ending
// is not authoritative on its own — the job's state is — so one status
// round trip classifies it: done makes the spool the shard's results; a
// non-terminal state means the stream was cut early (daemon restart
// mid-job) and the shard re-follows after retryDelay; failures send the
// shard back to the queue.
func (c *coord) finishFollow(ctx context.Context, i int, res followEnd) error {
	st := c.shards[i]
	ep := c.eps[st.endpoint]
	if res.err != nil {
		if cerr := c.cancelled(ctx, res.err); cerr != nil {
			return cerr
		}
		if errors.Is(res.err, errNoFollow) {
			return fmt.Errorf("fanout: shard %d: %s answered a follow request without the X-Slimcodemld-Follow header — upgrade the daemon", i, ep.url)
		}
		if !isAPIError(res.err) {
			c.markDead(st.endpoint, res.err)
			return c.demote(i, fmt.Sprintf("follow stream of job %s broke: %v", st.jobID, res.err))
		}
		// e.g. the daemon purged the job mid-stream.
		return c.demote(i, fmt.Sprintf("follow of job %s refused by %s: %v", st.jobID, ep.url, res.err))
	}
	t0 := time.Now()
	status, err := ep.client.JobStatus(ctx, st.jobID)
	c.met.observePoll(time.Since(t0))
	if err != nil {
		if cerr := c.cancelled(ctx, err); cerr != nil {
			return cerr
		}
		if !isAPIError(err) {
			c.markDead(st.endpoint, err)
			return c.demote(i, fmt.Sprintf("endpoint %s died", ep.url))
		}
		if serve.IsNotFound(err) {
			return c.demote(i, fmt.Sprintf("job %s lost by %s", st.jobID, ep.url))
		}
		c.retryLater(st) // transient server hiccup: re-follow
		return nil
	}
	switch status.State {
	case serve.StateDone:
		if res.lines != len(st.entries) {
			// The stream was cut before the job finished and the daemon
			// finished it before this status call (a quick restart):
			// fetch the results whole.
			return c.spoolShard(ctx, i)
		}
		c.setPhase(st, shardJobDone)
	case serve.StateFailed:
		return c.demote(i, fmt.Sprintf("job failed on %s: %s", ep.url, status.Error))
	case serve.StateCancelled:
		return c.demote(i, fmt.Sprintf("job cancelled on %s", ep.url))
	default:
		// queued / running / interrupted: cut before the job finished.
		// Follow again from scratch — the spool is re-created. An
		// interrupted job resumes when its daemon restarts; if the daemon
		// instead stays down, the next follow fails with a transport
		// error and the shard is requeued.
		c.retryLater(st)
	}
	return nil
}

// demote returns a submitted shard to the queue for resubmission,
// failing the run once the shard has exhausted its resubmission budget
// (with MaxResubmits 0, the first loss is already fatal).
func (c *coord) demote(shard int, reason string) error {
	st := c.shards[shard]
	c.stopFollower(st)
	os.Remove(st.spool)
	c.setPhase(st, shardPending)
	st.jobID = ""
	st.retryAt = time.Time{}
	st.resubmits++
	c.sum.Resubmits++
	c.met.resubmits.Inc()
	c.log.Warn("shard needs resubmission",
		"shard", shard, "reason", reason, "attempt", st.resubmits, "budget", c.cfg.MaxResubmits)
	if st.resubmits > c.cfg.MaxResubmits {
		return fmt.Errorf("fanout: shard %d failed %d times, last: %s", shard, st.resubmits, reason)
	}
	return nil
}

// adoptAssignments probes the ledger's recorded jobs so a resumed
// coordinator follows still-live daemon jobs instead of starting them
// over. A job the daemon no longer knows (or a daemon that is gone)
// sends the shard back to the queue.
func (c *coord) adoptAssignments(ctx context.Context) error {
	for i := c.next; i < len(c.shards); i++ {
		st := c.shards[i]
		if st.phase != shardSubmitted {
			continue
		}
		ep := c.eps[st.endpoint]
		if !ep.alive {
			st.phase = shardPending
			st.jobID = ""
			continue
		}
		status, err := ep.client.JobStatus(ctx, st.jobID)
		// Job ids can be reissued after a purge + daemon restart, so an
		// id match alone does not identify the shard's job: the daemon's
		// manifest digest must match the shard's rows, or the recorded
		// id now names someone else's job and the shard is rerun.
		sameJob := err == nil && status.ManifestDigest == st.digest
		switch {
		case sameJob && (status.State == serve.StateQueued || status.State == serve.StateRunning ||
			status.State == serve.StateInterrupted):
			c.sum.Adopted++
			c.log.Info("adopted job", "shard", i, "endpoint", ep.url, "job", st.jobID,
				"state", status.State, "done", status.Done, "total", status.Total)
			c.startFollower(ctx, i)
		case sameJob && status.State == serve.StateDone:
			st.phase = shardJobDone
			c.sum.Adopted++
			c.log.Info("adopted finished job", "shard", i, "endpoint", ep.url, "job", st.jobID)
		case err == nil || serve.IsNotFound(err):
			// Failed, cancelled, or forgotten: run it again.
			st.phase = shardPending
			st.jobID = ""
		default:
			if cerr := c.cancelled(ctx, err); cerr != nil {
				return cerr
			}
			if isAPIError(err) {
				// A transient server-side error: keep the assignment; the
				// first round follows the job rather than orphaning a
				// possibly near-done one.
				continue
			}
			c.markDead(st.endpoint, err)
			st.phase = shardPending
			st.jobID = ""
		}
	}
	return nil
}

// spoolShard downloads one finished shard's JSONL rows to its local
// spool file, verifying the row count matches the shard — a daemon
// claiming done with the wrong number of rows would silently corrupt
// the merge, and is fatal. Transport failures mark the endpoint dead
// and demote the shard for resubmission. On success the shard is ready
// to merge whenever its in-order turn comes, independent of the
// daemon's fate.
func (c *coord) spoolShard(ctx context.Context, i int) error {
	st := c.shards[i]
	ep := c.eps[st.endpoint]
	rc, err := ep.client.Results(ctx, st.jobID)
	if err == nil {
		var f *os.File
		if f, err = os.Create(st.spool); err != nil {
			rc.Close()
			return fmt.Errorf("fanout: %w", err)
		}
		var lines int
		lines, err = spoolCopy(f, rc)
		rc.Close()
		if err == nil {
			if lines != len(st.entries) {
				return fmt.Errorf("fanout: job %s returned %d rows for a %d-gene shard", st.jobID, lines, len(st.entries))
			}
			c.setPhase(st, shardJobDone)
			return nil
		}
	}
	if cerr := c.cancelled(ctx, err); cerr != nil {
		return cerr
	}
	if !isAPIError(err) {
		c.markDead(st.endpoint, err)
	}
	return c.demote(i, fmt.Sprintf("results of job %s unavailable: %v", st.jobID, err))
}

// spoolCopy copies a result stream into a freshly created spool file,
// closes it, and counts the rows.
func spoolCopy(f *os.File, r io.Reader) (int, error) {
	lc := &lineCounter{w: f}
	_, err := io.Copy(lc, r)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return lc.lines, err
}

// appendReady merges completed shards into the output, strictly in
// shard order: shard k is appended only once shards 0..k-1 are. Shard
// bytes are flushed and fsynced before the ledger's done record, and a
// mid-merge failure truncates the output back to the last durable
// offset — the merge can always be retried.
func (c *coord) appendReady(ctx context.Context) error {
	for c.next < len(c.shards) {
		st := c.shards[c.next]
		if len(st.entries) == 0 {
			// An empty shard (more shards than rows) contributes no
			// bytes but still gets its done record, so resume sees the
			// prefix intact.
			if err := c.ledger.AppendDone(checkpoint.ShardDone{Shard: c.next, Offset: c.offset}); err != nil {
				return err
			}
			if c.cfg.OnAppended != nil {
				c.cfg.OnAppended(c.next, c.offset)
			}
			c.next++
			c.changes++
			continue
		}
		if st.phase != shardJobDone {
			return nil
		}
		if _, err := os.Stat(st.spool); err != nil {
			// An adopted finished job reaches jobDone without a spool;
			// download it now. Failure demotes the shard (and returns
			// it to the submit loop) rather than stalling the merge.
			if err := c.spoolShard(ctx, c.next); err != nil {
				return err
			}
			if st.phase != shardJobDone {
				return nil
			}
		}
		f, err := os.Open(st.spool)
		if err != nil {
			return fmt.Errorf("fanout: %w", err)
		}
		n, err := io.Copy(c.out, f)
		f.Close()
		if err == nil {
			err = c.out.Sync()
		}
		if err != nil {
			if terr := c.truncateBack(); terr != nil {
				return terr
			}
			return fmt.Errorf("fanout: merging %s: %w", st.spool, err)
		}
		c.offset += n
		if err := c.ledger.AppendDone(checkpoint.ShardDone{Shard: c.next, Offset: c.offset}); err != nil {
			return err
		}
		c.log.Info("shard merged",
			"shard", c.next, "genes", len(st.entries), "output_bytes", c.offset)
		if c.cfg.OnAppended != nil {
			c.cfg.OnAppended(c.next, c.offset)
		}
		os.Remove(st.spool)
		if c.cfg.Purge {
			ep := c.eps[st.endpoint]
			if err := ep.client.Purge(ctx, st.jobID); err != nil && ctx.Err() == nil {
				c.log.Warn("purge failed; the daemon's retention will catch it",
					"shard", c.next, "endpoint", ep.url, "job", st.jobID, "error", err)
			}
		}
		c.next++
		c.changes++
	}
	return nil
}

// truncateBack rolls the output file back to the last ledgered offset
// after a partial shard copy.
func (c *coord) truncateBack() error {
	if err := c.out.Truncate(c.offset); err != nil {
		return fmt.Errorf("fanout: %s: %w", c.cfg.OutPath, err)
	}
	if _, err := c.out.Seek(c.offset, io.SeekStart); err != nil {
		return fmt.Errorf("fanout: %s: %w", c.cfg.OutPath, err)
	}
	return nil
}

// lineCounter counts newlines flowing through to the output — one per
// JSONL result row.
type lineCounter struct {
	w     io.Writer
	lines int
}

func (l *lineCounter) Write(p []byte) (int, error) {
	n, err := l.w.Write(p)
	for _, b := range p[:n] {
		if b == '\n' {
			l.lines++
		}
	}
	return n, err
}

// isAPIError reports whether err is a server-reported API error (the
// daemon is alive and answering) as opposed to a transport failure.
func isAPIError(err error) bool {
	var ae *serve.APIError
	return errors.As(err, &ae)
}
