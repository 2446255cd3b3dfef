package checkpoint

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"os"

	"repro/internal/align"
	"repro/internal/core"
	"repro/internal/manifest"
)

// RunConfig configures one checkpointed (and possibly resumed)
// streaming run over a manifest.
type RunConfig struct {
	// Entries are the manifest rows to process — for a sharded run,
	// the shard's rows.
	Entries []manifest.Entry
	// Format selects the alignment file format (FormatAuto sniffs).
	Format align.Format
	// OutPath is the JSONL results file; the ledger lives beside it
	// (LedgerPath).
	OutPath string
	// Opts configures the stream. ShareFrequencies runs compute π once
	// and record it in the ledger; resumed runs replay it.
	Opts core.StreamOptions
	// Counts, when non-nil, is the sidecar count cache the
	// shared-frequency pre-pass consults.
	Counts *manifest.CountCache
	// OnStart, when set, is called once with the already-checkpointed
	// progress before any new gene is fitted.
	OnStart func(completed, failed int)
	// OnResult, when set, observes each result after it is durably
	// checkpointed.
	OnResult func(core.GeneResult)
}

// Run executes a checkpointed streaming run: a fresh ledger and output
// when none exist, otherwise a validated resume that skips the
// checkpointed prefix and appends. Rerunning the same config after a
// crash — or after completion, which is a no-op — is always safe; the
// concatenated output is byte-identical to an uninterrupted run's.
// Cancelling ctx stops the run at a checkpoint-consistent point, ready
// to be resumed by the same call.
func Run(ctx context.Context, cfg RunConfig) (*core.StreamSummary, error) {
	if cfg.OutPath == "" {
		return nil, fmt.Errorf("checkpoint: Run needs an output path")
	}
	if len(cfg.Entries) == 0 {
		return nil, fmt.Errorf("checkpoint: Run needs at least one manifest row")
	}
	fp := RunFingerprint(cfg.Opts, cfg.Format)
	// A persistent result store keys on the base options fingerprint;
	// RunBatchStream appends the resolved π digest and the warm-start
	// marker itself, so the store and the ledger agree on identity.
	if cfg.Opts.Persist != nil && cfg.Opts.PersistFingerprint == "" {
		cfg.Opts.PersistFingerprint = OptionsFingerprint(cfg.Opts.BatchOptions, cfg.Format)
	}
	ledgerPath := LedgerPath(cfg.OutPath)

	var ledger *Ledger
	var plan Plan
	if _, statErr := os.Stat(ledgerPath); statErr == nil {
		var err error
		ledger, err = Open(ledgerPath)
		if err != nil {
			return nil, err
		}
		plan, err = ledger.Plan(cfg.Entries, fp)
		if err != nil {
			ledger.Close()
			return nil, err
		}
	} else if !errors.Is(statErr, fs.ErrNotExist) {
		// A transient stat failure must not truncate a resumable ledger.
		return nil, fmt.Errorf("checkpoint: %s: %w", ledgerPath, statErr)
	} else {
		var err error
		ledger, err = Create(ledgerPath, Header{
			ManifestDigest: manifest.Digest(cfg.Entries),
			Genes:          len(cfg.Entries),
			Options:        fp,
		})
		if err != nil {
			return nil, err
		}
	}
	defer ledger.Close()
	if cfg.OnStart != nil {
		cfg.OnStart(plan.Skip, plan.Failed)
	}

	out, err := OpenOutput(cfg.OutPath, plan.Offset)
	if err != nil {
		return nil, err
	}
	defer out.Close()

	src := core.NewManifestSource(cfg.Entries, cfg.Format)
	if cfg.Counts != nil {
		src.WithCountCache(cfg.Counts)
	}
	opts := cfg.Opts
	if opts.ShareFrequencies && opts.Frequencies == nil {
		if plan.Frequencies != nil {
			// Replay the recorded π bit-for-bit instead of re-pooling.
			opts.Frequencies = plan.Frequencies
		} else {
			pi, err := core.SharedFrequencies(ctx, src, opts.Options)
			if err != nil {
				return nil, err
			}
			if err := ledger.AppendFrequencies(pi); err != nil {
				return nil, err
			}
			opts.Frequencies = pi
		}
	}

	// Every result is flushed and fsynced by the sink before its
	// ledger record, so the deferred Close has nothing left to lose.
	sink := NewSink(out, cfg.Entries, plan, ledger, cfg.OnResult)
	return core.RunBatchStream(ctx, Resume(src, plan.Skip), sink, opts)
}
