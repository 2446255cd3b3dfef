// Command slimcodeml runs the branch-site positive selection test on a
// codon alignment and a phylogenetic tree with one #1-marked
// foreground branch — the workflow of CodeML with model=2 NSsites=2,
// as optimized by the paper.
//
// Usage:
//
//	slimcodeml -seq aln.fasta -tree tree.nwk [flags]
//	slimcodeml -seq g1.fasta,g2.fasta,... -tree tree.nwk [flags]   (batch)
//	slimcodeml -manifest genes.tsv -out results.jsonl [flags]      (batch)
//	slimcodeml -dir genes/ -out results.tsv [flags]                (batch)
//
// In single-gene mode the output reports the H0 and H1 fits, the
// likelihood ratio test, and the sites inferred to be under positive
// selection.
//
// The three batch modes differ only in where the gene list comes
// from: several comma-separated -seq alignments all tested against
// the one -tree (each gene named by its file's base name), -manifest
// rows of "name alignment-path tree-path" (per-gene trees,
// Selectome-style; '#' comments, paths relative to the manifest), or
// -dir pairing NAME.{fasta,fa,fna,phy,phylip} with
// NAME.{nwk,tree,newick}. Genes are loaded through a bounded prefetch
// window (-prefetch, default 2×jobs), fitted -jobs at a time with
// every likelihood engine sharing one persistent worker pool
// (-workers) and one eigendecomposition cache, and written to -out in
// list order as JSON Lines or TSV (-outfmt, or by the -out extension;
// TSV on stdout without -out); peak memory is O(prefetch), not
// O(genes).
//
// -shard i/n (batch modes) restricts the run to the i-th of n
// deterministic contiguous row ranges of the manifest — the multi-host
// scale-out unit: launch one process per shard on the same manifest
// and concatenate the JSONL outputs to recover the full run.
//
// -resume (batch modes, JSONL output) makes the run durable: every
// completed gene is checkpointed to a ledger beside -out, and rerunning
// the identical command after a crash or Ctrl-C continues from the
// last checkpointed gene, producing output byte-identical to an
// uninterrupted run.
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"

	"repro/internal/align"
	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/manifest"
	"repro/internal/newick"
	"repro/internal/persistcache"
)

func main() {
	var (
		seqPath   = flag.String("seq", "", "alignment file(s), comma-separated (FASTA or PHYLIP); two or more select batch mode")
		treePath  = flag.String("tree", "", "Newick tree file with one branch marked #1")
		maniPath  = flag.String("manifest", "", "batch mode: manifest file with one 'name alignment-path tree-path' row per gene")
		dirPath   = flag.String("dir", "", "batch mode: directory pairing NAME.{fasta,fa,fna,phy,phylip} with NAME.{nwk,tree,newick}")
		shard     = flag.String("shard", "", "batch modes: run only shard i of n (\"i/n\", 1-based) of the manifest rows — one process per shard scales a manifest across machines; JSONL outputs concatenate")
		resume    = flag.Bool("resume", false, "batch modes (JSONL -out): checkpoint every gene to <out>.ckpt and continue a killed run from its last checkpoint; rerun the identical command to resume")
		cacheDir  = flag.String("cachedir", "", "batch modes: cross-run warm cache directory — re-runs of already-analyzed rows replay byte-identically with zero fitting")
		outPath   = flag.String("out", "", "batch modes: results file (.jsonl or .tsv; empty = TSV on stdout)")
		outFmt    = flag.String("outfmt", "auto", "batch output format: jsonl, tsv or auto (by -out extension)")
		prefetch  = flag.Int("prefetch", 0, "batch modes: max genes resident at once (0 = 2×jobs)")
		format    = flag.String("format", "auto", "alignment format: fasta, phylip or auto")
		engine    = flag.String("engine", "slim", "engine: baseline, slim, slim-sym or slim-bundled")
		freq      = flag.String("freq", "f61", "codon frequencies: f61, f3x4 or uniform")
		maxIter   = flag.Int("maxiter", 500, "maximum BFGS iterations per hypothesis")
		seed      = flag.Int64("seed", 1, "seed for the starting parameter values")
		alpha     = flag.Float64("alpha", 0.05, "significance level for the LRT (single-gene mode only)")
		beb       = flag.Int("beb", 0, "BEB grid size per axis (0 disables; 5 matches a light PAML grid; single-gene mode only)")
		m0start   = flag.Bool("m0start", false, "initialize branch lengths from an M0 pre-fit (Selectome-style)")
		workers   = flag.Int("workers", 0, "block-pool likelihood workers (0 = serial engine; batch modes default to GOMAXPROCS)")
		jobs      = flag.Int("jobs", 0, "genes fitted concurrently in batch modes (0 = GOMAXPROCS)")
		shareFreq = flag.Bool("sharefreq", false, "batch modes: estimate one frequency vector from the pooled codon counts of all genes")
	)
	flag.Parse()
	seqPaths := strings.Split(*seqPath, ",")
	listed := *maniPath != "" || *dirPath != ""
	if !listed && (*seqPath == "" || *treePath == "") {
		flag.Usage()
		os.Exit(2)
	}
	opts := core.Options{MaxIterations: *maxIter, Seed: *seed, M0Start: *m0start, Workers: *workers}
	if err := fillEngineAndFreq(&opts, *engine, *freq); err != nil {
		fmt.Fprintln(os.Stderr, "slimcodeml:", err)
		os.Exit(1)
	}

	var err error
	switch {
	case listed && (*seqPath != "" || *treePath != ""):
		err = fmt.Errorf("-manifest/-dir carry their own alignments and trees; drop -seq and -tree")
	case *maniPath != "" && *dirPath != "":
		err = fmt.Errorf("-manifest and -dir are mutually exclusive")
	case listed || len(seqPaths) > 1:
		if *beb > 0 {
			fmt.Fprintln(os.Stderr, "slimcodeml: -beb applies to single-gene mode only; ignoring it for this batch")
		}
		err = runStream(streamConfig{
			maniPath: *maniPath, dirPath: *dirPath, seqPaths: seqPaths, treePath: *treePath,
			format: *format, opts: opts, jobs: *jobs, workers: *workers, prefetch: *prefetch,
			shareFreq: *shareFreq, shard: *shard, outPath: *outPath,
			outFmt: *outFmt, resume: *resume,
			cacheDir: *cacheDir,
		})
	default:
		if *shard != "" {
			fmt.Fprintln(os.Stderr, "slimcodeml: -shard applies to batch modes only; ignoring it")
		}
		if *jobs > 0 || *shareFreq {
			fmt.Fprintln(os.Stderr, "slimcodeml: -jobs and -sharefreq apply to batch modes only; ignoring them for this single gene")
		}
		err = run(seqPaths[0], *treePath, *format, opts, *alpha, *beb)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "slimcodeml:", err)
		os.Exit(1)
	}
}

// streamConfig carries the batch-mode flag set. The gene list comes
// from maniPath, dirPath, or else seqPaths against treePath.
type streamConfig struct {
	maniPath, dirPath, format string
	seqPaths                  []string
	treePath                  string
	opts                      core.Options
	jobs, workers, prefetch   int
	shareFreq                 bool
	shard, outPath, outFmt    string
	resume                    bool
	cacheDir                  string
}

// runStream drives every batch mode: genes stream through
// core.RunBatchStream's bounded prefetch window and results stream to
// the output file in list order. A -shard spec slices the gene list to
// its deterministic row range before anything streams, so n
// cooperating processes cover it exactly once. Ctrl-C cancels the
// stream at a gene boundary; with -resume the run is checkpointed gene
// by gene and rerunning the identical command continues it.
func runStream(cfg streamConfig) error {
	entries, err := streamEntries(cfg)
	if err != nil {
		return err
	}
	shardNote := ""
	if cfg.shard != "" {
		idx, count, err := manifest.ParseShard(cfg.shard)
		if err != nil {
			return err
		}
		total := len(entries)
		if entries, err = manifest.Shard(entries, idx, count); err != nil {
			return err
		}
		shardNote = fmt.Sprintf(" (shard %d/%d of %d rows)", idx, count, total)
		// An empty shard (count > rows) is not an error, and it still
		// runs the stream so -out is created: a one-file-per-shard
		// collector must find every part file, even empty ones.
	}
	afmt, err := align.ParseFormat(cfg.format)
	if err != nil {
		return err
	}
	var store *persistcache.Store
	if cfg.cacheDir != "" {
		if store, err = persistcache.Open(cfg.cacheDir); err != nil {
			return err
		}
	}

	// Ctrl-C / SIGTERM cancel the stream at a gene boundary instead of
	// leaving prefetched goroutines running mid-write.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	sopts := core.StreamOptions{
		BatchOptions: core.BatchOptions{
			Options:          cfg.opts,
			Concurrency:      cfg.jobs,
			PoolWorkers:      cfg.workers,
			ShareFrequencies: cfg.shareFreq,
		},
		Prefetch: cfg.prefetch,
	}
	if store != nil {
		sopts.Persist = store
		sopts.PersistFingerprint = checkpoint.OptionsFingerprint(sopts.BatchOptions, afmt)
	}
	status := io.Writer(os.Stderr)
	if cfg.outPath != "" {
		status = os.Stdout
	}
	fmt.Fprintf(status, "SlimCodeML streaming batch: %d genes%s, %s engine\n", len(entries), shardNote, cfg.opts.Engine)

	if cfg.resume {
		return runCheckpointed(ctx, cfg, entries, afmt, sopts, status)
	}

	// Status lines share stdout only when the results go to a file.
	var out io.Writer = os.Stdout
	finish := func() error { return nil }
	if cfg.outPath != "" {
		f, err := os.Create(cfg.outPath)
		if err != nil {
			return err
		}
		bw := bufio.NewWriter(f)
		out = bw
		// A flush or close failure (e.g. ENOSPC) must fail the run —
		// a silently truncated results file would read as complete.
		finish = func() error {
			if err := bw.Flush(); err != nil {
				f.Close()
				return fmt.Errorf("writing %s: %w", cfg.outPath, err)
			}
			if err := f.Close(); err != nil {
				return fmt.Errorf("writing %s: %w", cfg.outPath, err)
			}
			return nil
		}
	}
	var sink core.ResultSink
	switch resolveOutFmt(cfg.outFmt, cfg.outPath) {
	case "jsonl":
		sink = core.NewJSONLSink(out)
	case "tsv":
		sink = core.NewTSVSink(out)
	default:
		return fmt.Errorf("unknown output format %q (want jsonl or tsv)", cfg.outFmt)
	}

	summary, err := core.RunBatchStream(ctx, core.NewManifestSource(entries, afmt), sink, sopts)
	if err != nil {
		finish()
		if errors.Is(err, context.Canceled) {
			return fmt.Errorf("interrupted after %d genes (rerun with -resume to make runs continuable)", summaryGenes(summary))
		}
		return err
	}
	if err := finish(); err != nil {
		return err
	}
	printStreamSummary(status, summary)
	return nil
}

// streamEntries builds the verified gene list of a batch run: the
// manifest, the directory scan, or one entry per -seq alignment, named
// by the file's base name without its extension and paired with the
// one -tree.
func streamEntries(cfg streamConfig) ([]manifest.Entry, error) {
	switch {
	case cfg.maniPath != "":
		return manifest.Load(cfg.maniPath)
	case cfg.dirPath != "":
		return manifest.ScanDir(cfg.dirPath)
	}
	entries := make([]manifest.Entry, len(cfg.seqPaths))
	for i, p := range cfg.seqPaths {
		p = strings.TrimSpace(p)
		if p == "" {
			return nil, fmt.Errorf("empty alignment path in -seq list")
		}
		entries[i] = manifest.Entry{Name: strings.TrimSuffix(filepath.Base(p), filepath.Ext(p)), AlignPath: p, TreePath: cfg.treePath}
	}
	return entries, manifest.Verify(entries)
}

// runCheckpointed executes the -resume path: a checkpointed run via
// the ledger beside -out, continuing any previous checkpointed run of
// the identical command.
func runCheckpointed(ctx context.Context, cfg streamConfig, entries []manifest.Entry, afmt align.Format, sopts core.StreamOptions, status io.Writer) error {
	if cfg.outPath == "" {
		return fmt.Errorf("-resume needs -out (checkpoints live beside the results file)")
	}
	if resolveOutFmt(cfg.outFmt, cfg.outPath) != "jsonl" {
		return fmt.Errorf("-resume needs JSONL output (-outfmt jsonl); TSV is not an append-safe checkpoint format")
	}
	summary, err := checkpoint.Run(ctx, checkpoint.RunConfig{
		Entries: entries,
		Format:  afmt,
		OutPath: cfg.outPath,
		Opts:    sopts,
		OnStart: func(completed, failed int) {
			if completed > 0 {
				fmt.Fprintf(status, "resume: %d/%d genes already checkpointed (%d failed), continuing\n", completed, len(entries), failed)
			}
		},
	})
	if err != nil {
		if errors.Is(err, context.Canceled) {
			return fmt.Errorf("interrupted after %d more genes — rerun the identical command to resume", summaryGenes(summary))
		}
		return err
	}
	printStreamSummary(status, summary)
	return nil
}

// summaryGenes reads the delivered-gene count off a possibly nil
// summary (a stream cancelled during the shared-frequency pre-pass
// returns none).
func summaryGenes(summary *core.StreamSummary) int {
	if summary == nil {
		return 0
	}
	return summary.Genes
}

// printStreamSummary reports one stream's totals.
func printStreamSummary(status io.Writer, summary *core.StreamSummary) {
	replayed := ""
	if summary.Replayed > 0 {
		replayed = fmt.Sprintf(", %d replayed from warm cache", summary.Replayed)
	}
	fmt.Fprintf(status, "stream: %d genes (%d failed%s), %.2f s, decomposition cache %d hits / %d misses\n",
		summary.Genes, summary.Failed, replayed, summary.Runtime.Seconds(), summary.CacheHits, summary.CacheMisses)
}

// resolveOutFmt maps -outfmt (or the -out extension when auto) to a
// sink kind.
func resolveOutFmt(outFmt, outPath string) string {
	if outFmt != "auto" && outFmt != "" {
		return outFmt
	}
	switch filepath.Ext(outPath) {
	case ".jsonl", ".ndjson", ".json":
		return "jsonl"
	}
	return "tsv"
}

// fillEngineAndFreq resolves the -engine and -freq spellings through
// the shared core parsers (the same ones the job daemon's API uses).
func fillEngineAndFreq(opts *core.Options, engine, freq string) error {
	var err error
	if opts.Engine, err = core.ParseEngineKind(engine); err != nil {
		return err
	}
	opts.Freq, err = core.ParseFreqEstimator(freq)
	return err
}

func run(seqPath, treePath, format string, opts core.Options, alpha float64, bebGrid int) error {
	a, err := readAlignment(seqPath, format)
	if err != nil {
		return err
	}
	tree, err := core.ReadTreeFile(treePath)
	if err != nil {
		return err
	}

	an, err := core.NewAnalysis(a, tree, opts)
	if err != nil {
		return err
	}
	defer an.Close()
	fmt.Printf("SlimCodeML branch-site test (%s engine", opts.Engine)
	if opts.Workers > 0 {
		fmt.Printf(", %d workers", opts.Workers)
	}
	fmt.Println(")")
	fmt.Printf("alignment: %d sequences × %d codons (%d site patterns)\n",
		a.NumSeqs(), a.Length()/3, an.NumPatterns())
	fmt.Printf("tree: %d species, %d branches, foreground: %s\n\n",
		tree.NumLeaves(), tree.NumBranches(), describeForeground(tree))

	res, err := an.Run()
	if err != nil {
		return err
	}
	printFit(res.H0)
	printFit(res.H1)

	fmt.Printf("LRT: 2ΔlnL = %.4f, p(χ²₁) = %.4g, p(mixture) = %.4g\n",
		res.LRT.Statistic, res.LRT.PValueChi2, res.LRT.PValueMixture)
	if res.LRT.SignificantAt(alpha) {
		fmt.Printf("positive selection DETECTED at α = %g\n", alpha)
	} else {
		fmt.Printf("no significant positive selection at α = %g\n", alpha)
	}
	if len(res.PositiveSites) > 0 {
		fmt.Println("\ncandidate sites (NEB posterior of classes 2a+2b > 0.5):")
		for _, s := range res.PositiveSites {
			marker := ""
			if s.Probability > 0.95 {
				marker = " **"
			} else if s.Probability > 0.90 {
				marker = " *"
			}
			fmt.Printf("  site %4d  P = %.3f%s\n", s.Site, s.Probability, marker)
		}
	}
	if bebGrid > 1 && res.LRT.SignificantAt(alpha) {
		bebRes, err := an.BEB(res.H1, bebGrid)
		if err != nil {
			return err
		}
		sites := bebRes.PositiveSitesBEB(0.5)
		fmt.Printf("\nBEB over %d grid points — sites with P(selection) > 0.5:\n", bebRes.GridPoints)
		for _, s := range sites {
			marker := ""
			if s.Probability > 0.95 {
				marker = " **"
			} else if s.Probability > 0.90 {
				marker = " *"
			}
			fmt.Printf("  site %4d  P = %.3f%s\n", s.Site, s.Probability, marker)
		}
	}
	fmt.Printf("\ntotal: %d iterations, %.2f s\n", res.TotalIterations, res.TotalRuntime.Seconds())
	return nil
}

func readAlignment(path, format string) (*align.Alignment, error) {
	f, err := align.ParseFormat(format)
	if err != nil {
		return nil, err
	}
	return align.ReadFile(path, f)
}

func describeForeground(t *newick.Tree) string {
	fg := t.ForegroundBranches()
	if len(fg) != 1 {
		return fmt.Sprintf("%d marked branches", len(fg))
	}
	n := fg[0]
	if n.IsLeaf() {
		return fmt.Sprintf("terminal branch to %s", n.Name)
	}
	return fmt.Sprintf("internal branch (subtree of %d leaves)", countLeaves(n))
}

func countLeaves(n *newick.Node) int {
	if n.IsLeaf() {
		return 1
	}
	total := 0
	for _, c := range n.Children {
		total += countLeaves(c)
	}
	return total
}

func printFit(r *core.FitResult) {
	fmt.Printf("%s: lnL = %.6f  (%d iterations, %.2f s, converged=%v)\n",
		r.Hypothesis, r.LnL, r.Iterations, r.Runtime.Seconds(), r.Converged)
	fmt.Printf("    κ = %.4f  ω0 = %.4f  ω2 = %.4f  p0 = %.4f  p1 = %.4f\n\n",
		r.Params.Kappa, r.Params.Omega0, r.Params.Omega2, r.Params.P0, r.Params.P1)
}
