package core

import (
	"context"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/align"
	"repro/internal/manifest"
)

// The shared-frequency pre-pass over a manifest must pool exactly what
// the pre-pass over the same genes in memory pools. A gene whose tree
// does not parse and a gene whose alignment is missing are skipped (the
// fit pass reports them as error rows), so π is bit-identical to the
// pre-pass over the loadable genes alone, under both pooled estimators,
// and the source is left at its first gene for the fits.
func TestManifestSharedFrequenciesMatchSlice(t *testing.T) {
	genes := streamGenes(t, 4)
	good := writeManifestDir(t, genes)
	dir := filepath.Dir(good[0].AlignPath)
	badTree := filepath.Join(dir, "bad.nwk")
	if err := os.WriteFile(badTree, []byte("((a,b\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	entries := []manifest.Entry{
		good[0],
		{Name: "badtree", AlignPath: good[1].AlignPath, TreePath: badTree},
		good[1],
		{Name: "noalign", AlignPath: filepath.Join(dir, "missing.fasta"), TreePath: good[2].TreePath},
		good[2],
		good[3],
	}
	ctx := context.Background()
	for _, freq := range []FreqEstimator{FreqF61, FreqF3x4} {
		opts := Options{Freq: freq}
		want, err := SharedFrequencies(ctx, NewSliceSource(genes), opts)
		if err != nil {
			t.Fatal(err)
		}
		src := NewManifestSource(entries, align.FormatAuto)
		got, err := SharedFrequencies(ctx, src, opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("freq %d: π has %d states, want %d", freq, len(got), len(want))
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("freq %d: π[%d] = %0.17g, want %0.17g", freq, i, got[i], want[i])
			}
		}
		g, err := src.Next()
		if err != nil || g == nil || g.Name != entries[0].Name {
			t.Fatalf("freq %d: source not at its first gene after the pre-pass: %v, %v", freq, g, err)
		}
	}
}

func TestManifestSourceSkip(t *testing.T) {
	genes := streamGenes(t, 4)
	entries := writeManifestDir(t, genes)
	src := NewManifestSource(entries, align.FormatAuto)
	if err := src.Skip(2); err != nil {
		t.Fatal(err)
	}
	g, err := src.Next()
	if err != nil || g == nil {
		t.Fatalf("Next after Skip: %v, %v", g, err)
	}
	if g.Name != entries[2].Name {
		t.Fatalf("Skip(2) then Next yields %s, want %s", g.Name, entries[2].Name)
	}
	if err := src.Skip(2); err == nil {
		t.Fatal("skip past the end accepted")
	}
	if err := src.Reset(); err != nil {
		t.Fatal(err)
	}
	g, err = src.Next()
	if err != nil || g == nil || g.Name != entries[0].Name {
		t.Fatalf("Reset did not rewind: %v, %v", g, err)
	}
}
