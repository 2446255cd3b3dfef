package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/align"
	"repro/internal/checkpoint"
	"repro/internal/codon"
	"repro/internal/core"
	"repro/internal/manifest"
	"repro/internal/persistcache"
	"repro/internal/sim"
)

// WarmSweepResult contrasts a cold streaming run against a warm re-run
// of the same manifest through one persistent cross-run cache
// (internal/persistcache): the warm run must replay every gene
// byte-identically with zero optimizer iterations and zero
// eigendecompositions, so its time is pure metadata+replay overhead.
type WarmSweepResult struct {
	Genes int
	// Cold and Warm are the wall times of the two runs.
	Cold, Warm time.Duration
	// ColdEigendecomps counts the eigendecompositions the cold run
	// performed (decomposition-cache misses); WarmEigendecomps is the
	// warm run's total decomposition-cache traffic, which a full replay
	// leaves at zero.
	ColdEigendecomps, WarmEigendecomps int
	// Replayed is the number of genes the warm run served from the
	// result tier (must equal Genes).
	Replayed int
}

// Speedup is the cold/warm wall-time ratio.
func (r *WarmSweepResult) Speedup() float64 {
	if r.Warm <= 0 {
		return 0
	}
	return float64(r.Cold) / float64(r.Warm)
}

// RunReplaySweep simulates a manifest of small genes, runs it cold
// through core.RunBatchStream with a fresh persistent cache, then runs
// it again warm. It errors if the warm run's output is not
// byte-identical to the cold run's or if any gene escaped replay — the
// recorded speedup is only meaningful if the warm run did zero fitting.
func RunReplaySweep(genes, species, sites, maxIter int) (*WarmSweepResult, error) {
	dir, err := os.MkdirTemp("", "warmsweep")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	entries := make([]manifest.Entry, genes)
	for i := range entries {
		tree, err := sim.RandomTree(sim.TreeConfig{Species: species, MeanBranchLength: 0.2, Seed: int64(500 + i)})
		if err != nil {
			return nil, err
		}
		aln, err := sim.Simulate(tree, codon.Universal, sim.SeqConfig{
			Sites:  sites,
			Params: sim.TrueParams(),
			Seed:   int64(600 + i),
		})
		if err != nil {
			return nil, err
		}
		name := fmt.Sprintf("g%02d", i)
		alnPath := filepath.Join(dir, name+".fasta")
		f, err := os.Create(alnPath)
		if err != nil {
			return nil, err
		}
		if err := align.WriteFasta(f, aln); err != nil {
			f.Close()
			return nil, err
		}
		if err := f.Close(); err != nil {
			return nil, err
		}
		treePath := filepath.Join(dir, name+".nwk")
		if err := os.WriteFile(treePath, []byte(tree.String()+"\n"), 0o644); err != nil {
			return nil, err
		}
		entries[i] = manifest.Entry{Name: name, AlignPath: alnPath, TreePath: treePath}
	}

	store, err := persistcache.Open(filepath.Join(dir, "cache"))
	if err != nil {
		return nil, err
	}
	opts := core.StreamOptions{
		BatchOptions: core.BatchOptions{
			Options: core.Options{Engine: core.EngineSlim, MaxIterations: maxIter, Seed: 1},
		},
		Persist: store,
	}
	opts.PersistFingerprint = checkpoint.OptionsFingerprint(opts.BatchOptions, align.FormatAuto)

	run := func() ([]byte, *core.StreamSummary, time.Duration, error) {
		var buf bytes.Buffer
		src := core.NewManifestSource(entries, align.FormatAuto)
		start := time.Now()
		sum, err := core.RunBatchStream(context.Background(), src, core.NewJSONLSink(&buf), opts)
		return buf.Bytes(), sum, time.Since(start), err
	}

	coldOut, coldSum, coldT, err := run()
	if err != nil {
		return nil, err
	}
	if coldSum.Failed != 0 {
		return nil, fmt.Errorf("bench: warm sweep cold run failed %d genes", coldSum.Failed)
	}
	warmOut, warmSum, warmT, err := run()
	if err != nil {
		return nil, err
	}
	if warmSum.Replayed != genes {
		return nil, fmt.Errorf("bench: warm run replayed %d of %d genes", warmSum.Replayed, genes)
	}
	// The plain JSONL sink stamps the cold run's real runtime_sec while
	// a replay carries the stored record's zero (the documented
	// exception); every other byte must agree.
	same, err := sameModuloRuntime(warmOut, coldOut)
	if err != nil {
		return nil, err
	}
	if !same {
		return nil, fmt.Errorf("bench: warm replay diverged from the cold run")
	}
	return &WarmSweepResult{
		Genes:            genes,
		Cold:             coldT,
		Warm:             warmT,
		ColdEigendecomps: coldSum.CacheMisses,
		WarmEigendecomps: warmSum.CacheHits + warmSum.CacheMisses,
		Replayed:         warmSum.Replayed,
	}, nil
}

// sameModuloRuntime compares two JSONL result streams with runtime_sec
// zeroed on both sides, relying on the records' canonical Go JSON
// round trip.
func sameModuloRuntime(a, b []byte) (bool, error) {
	norm := func(data []byte) ([]byte, error) {
		var out bytes.Buffer
		for _, line := range bytes.Split(bytes.TrimRight(data, "\n"), []byte("\n")) {
			var rec core.GeneRecord
			if err := json.Unmarshal(line, &rec); err != nil {
				return nil, fmt.Errorf("bench: warm sweep output: %w", err)
			}
			rec.RuntimeSec = 0
			b, err := json.Marshal(rec)
			if err != nil {
				return nil, err
			}
			out.Write(b)
			out.WriteByte('\n')
		}
		return out.Bytes(), nil
	}
	na, err := norm(a)
	if err != nil {
		return false, err
	}
	nb, err := norm(b)
	if err != nil {
		return false, err
	}
	return bytes.Equal(na, nb), nil
}
