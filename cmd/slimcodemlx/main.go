// Command slimcodemlx fans one manifest out across several slimcodemld
// daemons — the fifth execution tier. The manifest is sliced into
// deterministic contiguous shards (the same split as slimcodeml
// -shard i/n, default four shards per endpoint), the shards form a
// coordinator-side queue that daemons pull jobs from as they finish,
// and the per-shard JSONL results are concatenated, in shard order,
// into a single output file byte-identical to a standalone
// `slimcodeml -manifest -resume` run of the whole manifest.
//
// Usage:
//
//	slimcodemlx -manifest genes.tsv \
//	    -endpoints host1:8710,host2:8710,host3:8710 \
//	    -out results.jsonl [flags]
//
// The run is durable: shard submissions and merged shards are recorded
// in a fsynced ledger beside -out (<out>.fanout), so a killed
// coordinator rerun with the identical command skips already-merged
// shards and re-attaches to jobs still running on their daemons. A
// daemon that stops answering is excluded and its shards flow to the
// rest of the fleet, but exclusion is not forever: dead endpoints are
// health-probed on an exponential backoff (-reprobe up to
// -reprobe-max) and re-admitted when they answer again. Every daemon
// must see the manifest's alignment and tree files at the same
// (absolute) paths — run the fleet over a shared filesystem.
//
// -sharefreq pools codon frequencies over the WHOLE manifest in a
// coordinator pre-pass and pins every shard's job to the pooled
// vector, so the merged output matches a standalone -sharefreq run
// byte for byte. -purge deletes each shard's job from its daemon once
// the shard is safely merged, so a completed fan-out leaves the
// fleet's data directories empty (see also slimcodemld -retain).
//
// Each shard's results arrive over a streaming ?follow=1 connection
// opened at submission: rows land in the shard's local spool as the
// daemon checkpoints them, and the coordinator wakes when a stream
// ends — there is no poll interval to tune. A daemon that does not
// stream results is too old and fails the run with an upgrade message.
// A fleet running slimcodemld -tenants needs -token with a valid API
// token.
//
// Progress — submissions, merges, endpoint deaths and re-admissions,
// resubmissions — is one structured event log on stderr, text by
// default or JSON with -logfmt json; -quiet silences it. -metrics-addr
// serves the coordinator's own Prometheus /metrics (shard-phase and
// endpoint-health gauges, resubmission counters, status-call latency)
// on a separate listener — see docs/OPERATIONS.md.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/fanout"
	"repro/internal/manifest"
	"repro/internal/obs"
	"repro/internal/serve"
)

func main() {
	var (
		maniPath    = flag.String("manifest", "", "manifest file with one 'name alignment-path tree-path' row per gene")
		dirPath     = flag.String("dir", "", "directory pairing NAME.{fasta,fa,fna,phy,phylip} with NAME.{nwk,tree,newick} (alternative to -manifest)")
		endpoints   = flag.String("endpoints", "", "comma-separated slimcodemld base URLs (host:port or http://host:port)")
		shards      = flag.Int("shards", 0, "contiguous row ranges to split the manifest into (0 = four per endpoint)")
		outPath     = flag.String("out", "", "merged JSONL results file; the fan-out ledger lives beside it (<out>.fanout)")
		inflight    = flag.Int("inflight", 1, "jobs submitted to one endpoint at a time; further shards queue")
		reprobe     = flag.Duration("reprobe", time.Second, "initial backoff before a dead endpoint is health-probed for re-admission (negative disables re-probing)")
		reprobeMax  = flag.Duration("reprobe-max", 30*time.Second, "re-probe backoff ceiling")
		resubmits   = flag.Int("resubmits", 3, "max resubmissions per shard after daemon failures (0 = fail on the first lost shard)")
		purge       = flag.Bool("purge", false, "delete each shard's job from its daemon once the shard is merged")
		engine      = flag.String("engine", "slim", "engine: baseline, slim, slim-sym or slim-bundled")
		freq        = flag.String("freq", "f61", "codon frequencies: f61, f3x4 or uniform")
		maxIter     = flag.Int("maxiter", 500, "maximum BFGS iterations per hypothesis")
		seed        = flag.Int64("seed", 1, "seed for the starting parameter values")
		m0start     = flag.Bool("m0start", false, "initialize branch lengths from an M0 pre-fit")
		shareFreq   = flag.Bool("sharefreq", false, "pool codon frequencies over the whole manifest in a coordinator pre-pass and pin every shard's job to them")
		jobs        = flag.Int("jobs", 0, "genes fitted concurrently within each daemon job (0 = daemon's GOMAXPROCS)")
		prefetch    = flag.Int("prefetch", 0, "genes resident at once within each daemon job (0 = 2×jobs)")
		quiet       = flag.Bool("quiet", false, "suppress the progress event log")
		token       = flag.String("token", "", "API token sent as 'Authorization: Bearer <token>' to every daemon (for fleets running slimcodemld -tenants; harmless otherwise)")
		metricsAddr = flag.String("metrics-addr", "", "serve the coordinator's own Prometheus /metrics on this address (e.g. :9710; empty disables)")
		logFmt      = flag.String("logfmt", "text", "progress event log format on stderr: text or json")
	)
	flag.Parse()
	if (*maniPath == "") == (*dirPath == "") || *endpoints == "" || *outPath == "" {
		fmt.Fprintln(os.Stderr, "slimcodemlx: exactly one of -manifest/-dir, plus -endpoints and -out, are required")
		flag.Usage()
		os.Exit(2)
	}

	var entries []manifest.Entry
	var err error
	if *maniPath != "" {
		entries, err = manifest.Load(*maniPath)
	} else {
		entries, err = manifest.ScanDir(*dirPath)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "slimcodemlx:", err)
		os.Exit(1)
	}

	var eps []string
	for _, e := range strings.Split(*endpoints, ",") {
		if e = strings.TrimSpace(e); e != "" {
			eps = append(eps, e)
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	logger, err := obs.NewLogger(os.Stderr, *logFmt)
	if err != nil {
		fmt.Fprintln(os.Stderr, "slimcodemlx:", err)
		os.Exit(2)
	}
	if *quiet {
		logger = obs.NopLogger()
	}
	// The coordinator's own metric surface (shard phases, endpoint
	// health, status-call latency) on a separate listener: the coordinator is a
	// client of the daemons' APIs, not a server, so the scrape port is
	// opt-in and carries nothing else.
	reg := obs.NewRegistry()
	if *metricsAddr != "" {
		msrv := &http.Server{Addr: *metricsAddr, Handler: reg.Handler()}
		go func() {
			if err := msrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				fmt.Fprintln(os.Stderr, "slimcodemlx: metrics listener:", err)
			}
		}()
		defer msrv.Close()
	}
	fmt.Printf("SlimCodeML fan-out: %d genes over %d endpoints\n", len(entries), len(eps))
	sum, err := fanout.Run(ctx, fanout.Config{
		Entries:      entries,
		Endpoints:    eps,
		Shards:       *shards,
		InFlight:     *inflight,
		Reprobe:      *reprobe,
		ReprobeMax:   *reprobeMax,
		OutPath:      *outPath,
		MaxResubmits: *resubmits,
		Purge:        *purge,
		Token:        *token,
		Spec: serve.JobSpec{
			Engine:           *engine,
			Freq:             *freq,
			MaxIter:          *maxIter,
			Seed:             *seed,
			M0Start:          *m0start,
			ShareFrequencies: *shareFreq,
			Concurrency:      *jobs,
			Prefetch:         *prefetch,
		},
		Log:     logger,
		Metrics: reg,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "slimcodemlx:", err)
		if errors.Is(err, context.Canceled) {
			os.Exit(130)
		}
		os.Exit(1)
	}
	fmt.Printf("fan-out: %d genes in %d shards (%d resumed, %d adopted, %d resubmitted, %d re-admitted), %.2f s → %s\n",
		sum.Genes, sum.Shards, sum.Skipped, sum.Adopted, sum.Resubmits, sum.Readmissions, sum.Runtime.Seconds(), *outPath)
}
