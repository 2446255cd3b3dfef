package checkpoint

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/align"
	"repro/internal/core"
	"repro/internal/manifest"
	"repro/internal/persistcache"
)

// warmOpts is parityOpts with a persistent store attached.
func warmOpts(t *testing.T, shareFreq bool) (core.StreamOptions, *persistcache.Store) {
	t.Helper()
	store, err := persistcache.Open(filepath.Join(t.TempDir(), "cache"))
	if err != nil {
		t.Fatal(err)
	}
	opts := parityOpts(shareFreq)
	opts.Persist = store
	return opts, store
}

// TestWarmCacheReplayParity is the PR's acceptance scenario: a second
// run of an already-analyzed manifest against the same warm cache must
// produce byte-identical output while doing zero optimizer work and
// zero eigendecompositions — every gene replays from the result tier.
func TestWarmCacheReplayParity(t *testing.T) {
	entries := simManifest(t, 8)
	opts, store := warmOpts(t, false)

	coldOut := filepath.Join(t.TempDir(), "cold.jsonl")
	coldSum, err := Run(context.Background(), RunConfig{Entries: entries, OutPath: coldOut, Opts: opts})
	if err != nil {
		t.Fatal(err)
	}
	if coldSum.Replayed != 0 {
		t.Fatalf("cold run replayed %d genes", coldSum.Replayed)
	}
	if c := store.Counters(); c.ResultWrites != len(entries) {
		t.Fatalf("cold run persisted %d results, want %d", c.ResultWrites, len(entries))
	}
	want, err := os.ReadFile(coldOut)
	if err != nil {
		t.Fatal(err)
	}

	warmOut := filepath.Join(t.TempDir(), "warm.jsonl")
	warmSum, err := Run(context.Background(), RunConfig{Entries: entries, OutPath: warmOut, Opts: opts})
	if err != nil {
		t.Fatal(err)
	}
	if warmSum.Replayed != len(entries) {
		t.Fatalf("warm run replayed %d genes, want all %d", warmSum.Replayed, len(entries))
	}
	// Zero compute: a replayed gene never builds an engine, so the
	// warm run's decomposition cache saw no traffic at all.
	if warmSum.CacheHits != 0 || warmSum.CacheMisses != 0 {
		t.Fatalf("warm run touched the decomposition cache: %d hits / %d misses",
			warmSum.CacheHits, warmSum.CacheMisses)
	}
	got, err := os.ReadFile(warmOut)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("warm replay is not byte-identical to the cold run\nwarm (%d bytes): %q...\ncold (%d bytes): %q...",
			len(got), truncate(got), len(want), truncate(want))
	}
	if c := store.Counters(); c.ResultHits != len(entries) {
		t.Fatalf("warm run scored %d result hits, want %d", c.ResultHits, len(entries))
	}
}

// TestWarmCacheAcrossPathSpellings fills the cache through a manifest
// with relative paths and re-runs the same genes through absolute-path
// entries (the spelling the fan-out coordinator sends): the result tier
// keys on the absolute paths, so every gene replays byte-identically
// with zero eigendecompositions.
func TestWarmCacheAcrossPathSpellings(t *testing.T) {
	entries := simManifest(t, 4)
	opts, store := warmOpts(t, false)

	dir := filepath.Dir(entries[0].AlignPath)
	var rel bytes.Buffer
	for _, e := range entries {
		fmt.Fprintf(&rel, "%s\t%s\t%s\n", e.Name, filepath.Base(e.AlignPath), filepath.Base(e.TreePath))
	}
	if err := os.WriteFile(filepath.Join(dir, "m.tsv"), rel.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Chdir(dir)
	relEntries, err := manifest.Load("m.tsv")
	if err != nil {
		t.Fatal(err)
	}
	if filepath.IsAbs(relEntries[0].AlignPath) {
		t.Fatalf("relative manifest loaded absolute path %s", relEntries[0].AlignPath)
	}

	coldOut := filepath.Join(t.TempDir(), "cold.jsonl")
	if _, err := Run(context.Background(), RunConfig{Entries: relEntries, OutPath: coldOut, Opts: opts}); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(coldOut)
	if err != nil {
		t.Fatal(err)
	}

	warmOut := filepath.Join(t.TempDir(), "warm.jsonl")
	warmSum, err := Run(context.Background(), RunConfig{Entries: entries, OutPath: warmOut, Opts: opts})
	if err != nil {
		t.Fatal(err)
	}
	if warmSum.Replayed != len(entries) {
		t.Fatalf("absolute-path run replayed %d genes, want all %d", warmSum.Replayed, len(entries))
	}
	if warmSum.CacheHits != 0 || warmSum.CacheMisses != 0 {
		t.Fatalf("absolute-path run touched the decomposition cache: %d hits / %d misses",
			warmSum.CacheHits, warmSum.CacheMisses)
	}
	got, err := os.ReadFile(warmOut)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("absolute-path replay is not byte-identical to the relative-path cold run")
	}
	if c := store.Counters(); c.ResultHits != len(entries) {
		t.Fatalf("absolute-path run scored %d result hits, want %d", c.ResultHits, len(entries))
	}
}

// TestWarmCacheEditedInputInvalidates edits one alignment between runs:
// its entry must miss (size/mtime discipline) and be refitted while the
// untouched genes still replay.
func TestWarmCacheEditedInputInvalidates(t *testing.T) {
	entries := simManifest(t, 4)
	opts, _ := warmOpts(t, false)

	out1 := filepath.Join(t.TempDir(), "run1.jsonl")
	if _, err := Run(context.Background(), RunConfig{Entries: entries, OutPath: out1, Opts: opts}); err != nil {
		t.Fatal(err)
	}
	// Append a no-op comment line; FASTA content identity is carried by
	// size+mtime, and the size changed.
	f, err := os.OpenFile(entries[2].AlignPath, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("\n"); err != nil {
		t.Fatal(err)
	}
	f.Close()

	out2 := filepath.Join(t.TempDir(), "run2.jsonl")
	sum, err := Run(context.Background(), RunConfig{Entries: entries, OutPath: out2, Opts: opts})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Replayed != len(entries)-1 {
		t.Fatalf("replayed %d genes after editing one input, want %d", sum.Replayed, len(entries)-1)
	}
}

// TestWarmCacheKillResume runs the kill-and-resume acceptance scenario
// against a pre-populated warm cache: a run that is killed mid-stream
// and resumed must still be byte-identical to the original cold run,
// with the replays and the checkpoint ledger composing cleanly.
func TestWarmCacheKillResume(t *testing.T) {
	entries := simManifest(t, 12)
	opts, _ := warmOpts(t, false)

	coldOut := filepath.Join(t.TempDir(), "cold.jsonl")
	if _, err := Run(context.Background(), RunConfig{Entries: entries, OutPath: coldOut, Opts: opts}); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(coldOut)
	if err != nil {
		t.Fatal(err)
	}

	// Kill a warm run mid-stream, torn tails and all.
	out := filepath.Join(t.TempDir(), "run.jsonl")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	seen := 0
	sum, err := Run(ctx, RunConfig{
		Entries: entries, OutPath: out, Opts: opts,
		OnResult: func(core.GeneResult) {
			seen++
			if seen == 5 {
				cancel()
			}
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run returned %v", err)
	}
	for _, p := range []string{out, LedgerPath(out)} {
		f, err := os.OpenFile(p, os.O_APPEND|os.O_WRONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteString(`{"torn":"mid-wri`); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}

	sum2, err := Run(context.Background(), RunConfig{Entries: entries, OutPath: out, Opts: opts})
	if err != nil {
		t.Fatal(err)
	}
	if sum2.Genes != len(entries)-sum.Genes {
		t.Fatalf("resume delivered %d genes, want %d", sum2.Genes, len(entries)-sum.Genes)
	}
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("killed-and-resumed warm run is not byte-identical to the cold run")
	}
}

// TestWarmCacheSharedFrequencies pins the fingerprint unification: a
// -sharefreq checkpointed run (π derived, fingerprint completed inside
// the stream) must replay against its own cache on a second run.
func TestWarmCacheSharedFrequencies(t *testing.T) {
	entries := simManifest(t, 4)
	opts, _ := warmOpts(t, true)

	out1 := filepath.Join(t.TempDir(), "run1.jsonl")
	if _, err := Run(context.Background(), RunConfig{Entries: entries, OutPath: out1, Opts: opts}); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(out1)
	if err != nil {
		t.Fatal(err)
	}
	out2 := filepath.Join(t.TempDir(), "run2.jsonl")
	sum, err := Run(context.Background(), RunConfig{Entries: entries, OutPath: out2, Opts: opts})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Replayed != len(entries) {
		t.Fatalf("sharefreq warm run replayed %d genes, want %d", sum.Replayed, len(entries))
	}
	got, err := os.ReadFile(out2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("sharefreq warm replay is not byte-identical")
	}
}

// TestWarmCacheUncheckpointedStream drives core.RunBatchStream directly
// (the plain, non -resume streaming path) against a cache warmed by a
// checkpointed run: the tiers must interoperate because they share one
// fingerprint scheme.
func TestWarmCacheUncheckpointedStream(t *testing.T) {
	entries := simManifest(t, 4)
	opts, store := warmOpts(t, false)

	out1 := filepath.Join(t.TempDir(), "ckpt.jsonl")
	if _, err := Run(context.Background(), RunConfig{Entries: entries, OutPath: out1, Opts: opts}); err != nil {
		t.Fatal(err)
	}

	sopts := opts
	sopts.PersistFingerprint = OptionsFingerprint(sopts.BatchOptions, align.FormatAuto)
	var buf bytes.Buffer
	src := core.NewManifestSource(entries, align.FormatAuto)
	sum, err := core.RunBatchStream(context.Background(), src, core.NewJSONLSink(&buf), sopts)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Replayed != len(entries) {
		t.Fatalf("plain stream replayed %d genes from the checkpointed run's cache, want %d",
			sum.Replayed, len(entries))
	}
	if c := store.Counters(); c.ResultHits != len(entries) {
		t.Fatalf("result hits %d, want %d", c.ResultHits, len(entries))
	}
	want, err := os.ReadFile(out1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatal("plain-stream replay is not byte-identical to the checkpointed run")
	}
}
