// Command slimcodemld is the SlimCodeML analysis daemon — the fourth
// execution tier. It serves branch-site analyses as resumable jobs
// over an HTTP/JSON API: clients POST manifest jobs, poll per-gene
// progress, and stream results back as JSON Lines, while every job
// runs through the streaming batch driver on one shared likelihood
// worker pool and eigendecomposition cache and checkpoints each gene
// to a durable ledger in the data directory.
//
// Usage:
//
//	slimcodemld -addr :8710 -data ./slimcodemld-data [flags]
//
// API (see internal/serve):
//
//	POST   /jobs                  submit {"manifest_path": "...", ...}
//	GET    /jobs                  list jobs
//	GET    /jobs/{id}             status with per-gene progress
//	GET    /jobs/{id}/results     stream results as JSON Lines
//	DELETE /jobs/{id}             cancel
//	DELETE /jobs/{id}?purge=1     purge a finished job and its files
//	GET    /healthz               liveness + queue occupancy
//	GET    /metrics               Prometheus text exposition
//
// Observability: /metrics exposes HTTP, job-lifecycle, queue, cache
// and per-gene fit-latency series (see docs/OPERATIONS.md for a scrape
// config and example queries); -logfmt switches the structured event
// log between human-readable text and JSON; -pprof additionally mounts
// net/http/pprof's profiling handlers under /debug/pprof/ (off by
// default — profiling endpoints are opt-in, not something to expose on
// an open port by accident).
//
// Multi-tenancy is opt-in via -tenants: the file names each tenant, its
// API token and its quotas (see docs/OPERATIONS.md for the format).
// With it set every /jobs request needs "Authorization: Bearer <token>",
// tenants see only their own jobs, per-tenant queue quotas answer 429,
// and queued jobs dispatch in round-robin order across tenants instead
// of global FIFO. The file hot-reloads on change or SIGHUP; a broken
// edit keeps the previous tenant set active. Without -tenants the
// daemon is exactly the single-tenant open daemon it always was.
//
// GET /jobs/{id}/results?follow=1 upgrades the results fetch to a
// chunked stream that delivers each gene record as it becomes durable
// and ends once the job is terminal and drained — the bytes are
// identical to a plain fetch after completion.
//
// The data directory grows one results+ledger pair per job; -retain
// bounds it by purging done/failed/cancelled jobs once they have been
// finished longer than the window (interrupted jobs are kept — they
// resume on restart). cmd/slimcodemlx fans one manifest out across
// several daemons and concatenates the shard results.
//
// SIGINT/SIGTERM shut the daemon down gracefully: running jobs stop at
// their next gene boundary with every delivered result already
// checkpointed, and a daemon restarted on the same -data directory
// revalidates and resumes them from the ledger — a killed run costs
// the in-flight genes, never the completed ones.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"repro/internal/align"
	"repro/internal/blas"
	"repro/internal/obs"
	"repro/internal/serve"
)

func main() {
	var (
		addr      = flag.String("addr", ":8710", "HTTP listen address")
		dataDir   = flag.String("data", "slimcodemld-data", "directory for job specs, results and checkpoint ledgers")
		workers   = flag.Int("workers", 0, "shared likelihood pool workers (0 = GOMAXPROCS)")
		active    = flag.Int("jobs", 1, "jobs running concurrently (each parallelizes across its genes)")
		queue     = flag.Int("queue", 16, "max jobs waiting to run; submissions beyond it get 503")
		cache     = flag.Int("cache", 1024, "shared eigendecomposition cache entries")
		format    = flag.String("format", "auto", "alignment format for job files: fasta, phylip or auto")
		drain     = flag.Duration("drain", 30*time.Second, "graceful-shutdown budget for in-flight genes")
		retain    = flag.Duration("retain", 0, "purge done/failed/cancelled jobs (files and all) this long after they finish; 0 keeps them forever")
		tenants   = flag.String("tenants", "", "tenants file enabling token auth, per-tenant quotas and fair-share scheduling (empty = single-tenant open daemon; hot-reloads on file change or SIGHUP)")
		kernel    = flag.String("kernel", "", "default kernel for all jobs (empty = $"+blas.KernelEnv+" or "+blas.DefaultKernel+"; every kernel is bit-exact, results never change)")
		cacheDir  = flag.String("cachedir", "", "cross-run warm cache directory (empty = <data>/cache, \"off\" disables); survives restarts, never purged by -retain")
		logFmt    = flag.String("logfmt", "text", "structured log format on stderr: text or json")
		withPprof = flag.Bool("pprof", false, "mount net/http/pprof profiling handlers under /debug/pprof/")
	)
	flag.Parse()
	if *kernel != "" {
		if err := blas.SetKernel(*kernel); err != nil {
			fmt.Fprintln(os.Stderr, "slimcodemld:", err)
			os.Exit(2)
		}
	}
	logger, err := obs.NewLogger(os.Stderr, *logFmt)
	if err != nil {
		fmt.Fprintln(os.Stderr, "slimcodemld:", err)
		os.Exit(2)
	}
	if err := run(*addr, *dataDir, *workers, *active, *queue, *cache, *format, *cacheDir, *tenants, *drain, *retain, logger, *withPprof); err != nil {
		fmt.Fprintln(os.Stderr, "slimcodemld:", err)
		os.Exit(1)
	}
}

func run(addr, dataDir string, workers, active, queue, cache int, format, cacheDir, tenants string, drain, retain time.Duration, logger *slog.Logger, withPprof bool) error {
	afmt, err := align.ParseFormat(format)
	if err != nil {
		return err
	}
	switch cacheDir {
	case "":
		cacheDir = filepath.Join(dataDir, "cache")
	case "off":
		cacheDir = ""
	}
	server, err := serve.New(serve.Config{
		DataDir:     dataDir,
		PoolWorkers: workers,
		MaxActive:   active,
		QueueDepth:  queue,
		CacheSize:   cache,
		Format:      afmt,
		Retain:      retain,
		CacheDir:    cacheDir,
		TenantsPath: tenants,
		Log:         logger,
	})
	if err != nil {
		return err
	}
	// The API (with /metrics) is the root handler; the profiling
	// endpoints are mounted only with -pprof, by explicit registration —
	// never via net/http/pprof's DefaultServeMux side effect, which
	// would expose them unconditionally.
	mux := http.NewServeMux()
	mux.Handle("/", server.Handler())
	if withPprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	httpSrv := &http.Server{Addr: addr, Handler: mux}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// SIGHUP re-reads the tenants file on demand (the daemon also picks
	// up mtime changes on its own); without -tenants it is ignored.
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	defer signal.Stop(hup)
	go func() {
		for range hup {
			if tenants == "" {
				continue
			}
			if err := server.ReloadTenants(); err != nil {
				logger.Error("tenants reload failed; previous set stays active", "path", tenants, "error", err)
			} else {
				logger.Info("tenants reloaded", "path", tenants)
			}
		}
	}()

	errc := make(chan error, 1)
	go func() {
		logger.Info("serving", "addr", addr, "data", dataDir, "tenants", tenants, "pprof", withPprof)
		if err := httpSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
			errc <- err
		}
	}()

	select {
	case err := <-errc:
		server.Shutdown(context.Background())
		return err
	case <-ctx.Done():
	}
	logger.Info("signal received; checkpointing in-flight jobs", "drain", drain)
	shutCtx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	// Daemon core first: that ends follow-mode result streams (they
	// watch the server's quit signal), so the HTTP drain that follows
	// isn't held open by long-lived streaming connections.
	sErr := server.Shutdown(shutCtx)
	httpSrv.Shutdown(shutCtx)
	if sErr != nil {
		return sErr
	}
	logger.Info("stopped; restart with the same -data to resume jobs", "data", dataDir)
	return nil
}
