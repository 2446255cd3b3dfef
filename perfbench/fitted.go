package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/align"
	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/manifest"
	"repro/internal/persistcache"
)

// fitOptions pins every result-affecting option explicitly: the
// engine (core.Options' zero value is the baseline engine), the
// iteration cap and the optimizer seed the CLI defaults to.
func fitOptions(w workload) core.Options {
	return core.Options{Engine: w.kind(), MaxIterations: w.maxIter, Seed: 1}
}

// streamOptions is the tier-3 configuration of a `slimcodeml -manifest
// -resume -cachedir` run with -jobs 2 -workers 2.
func streamOptions(w workload, store *persistcache.Store) core.StreamOptions {
	return core.StreamOptions{
		BatchOptions: core.BatchOptions{
			Options:     fitOptions(w),
			Concurrency: fitConcurrency,
			PoolWorkers: poolWorkers,
		},
		Persist: store,
	}
}

// tier3Pass is one cold tier-3 run of the whole manifest into a fresh
// directory: a new output, ledger and persistent cache.
type tier3Pass struct {
	dir     string
	out     []byte
	summary *core.StreamSummary
	results []core.GeneResult // traced passes only
}

// runTier3 runs one pass through checkpoint.Run, or through the traced
// assembly of the same parts when tr is non-nil.
func runTier3(ctx context.Context, w workload, entries []manifest.Entry, dir string, tr *tracer) (*tier3Pass, usage, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, usage{}, err
	}
	store, err := persistcache.Open(filepath.Join(dir, "cache"))
	if err != nil {
		return nil, usage{}, err
	}
	outPath := filepath.Join(dir, "out.jsonl")
	p := &tier3Pass{dir: dir}
	u, err := measure(func() error {
		var err error
		if tr != nil {
			p.summary, p.results, err = tr.runCheckpointed(ctx, entries, outPath, streamOptions(w, store))
		} else {
			p.summary, err = checkpoint.Run(ctx, checkpoint.RunConfig{
				Entries: entries, Format: align.FormatAuto, OutPath: outPath, Opts: streamOptions(w, store),
			})
		}
		return err
	})
	if err != nil {
		return nil, u, err
	}
	p.out, err = os.ReadFile(outPath)
	return p, u, err
}

// runFitted measures a tier-3 workload: cold checkpointed runs of the
// manifest, each fitting every gene.
func runFitted(ctx context.Context, cfg config) (*result, error) {
	w := cfg.workload
	var manifestPath string
	_, setupS, err := repeatSetup(cfg.workDir, func(dir string) error {
		var err error
		manifestPath, err = writeInputs(w, cfg.seed, dir)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	entries, err := manifest.Load(manifestPath)
	if err != nil {
		return nil, err
	}
	var chk checker
	var m measured
	var firstRow []byte
	seconds := cfg.seconds
	if cfg.trace {
		seconds = 0 // one untraced pass, compared with one traced pass
	}
	err = passLoop(seconds, func(i int) error {
		p, u, err := runTier3(ctx, w, entries, filepath.Join(cfg.workDir, fmt.Sprintf("pass%d", i)), nil)
		if err != nil {
			return err
		}
		m.add(u, len(entries))
		chk.pass(p.out, entries)
		if firstRow == nil {
			firstRow, _, _ = bytes.Cut(p.out, []byte("\n"))
		}
		return os.RemoveAll(p.dir)
	})
	if err != nil {
		return nil, err
	}
	chk.checkGene(w, entries[0], firstRow)

	var metrics map[string]metric
	if cfg.trace {
		metrics, err = traceFitted(ctx, cfg, entries, &chk, &m)
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
